package repro.core

/** Growable `Int` array without boxing — the one growable buffer of the
  * codecs (quantization codes, fp32 outlier bits, correction codes).
  */
final class IntBuf(initialCapacity: Int = 256) {
  private var a = new Array[Int](math.max(1, initialCapacity))
  private var n = 0
  def +=(v: Int): Unit = {
    if (n == a.length) a = java.util.Arrays.copyOf(a, a.length * 2)
    a(n) = v; n += 1
  }
  def length: Int = n
  def toArray: Array[Int] = java.util.Arrays.copyOf(a, n)
}
