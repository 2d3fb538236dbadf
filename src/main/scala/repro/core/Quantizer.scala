package repro.core

/** SZ3-style linear error quantizer (Step 3 of the HPEZ pipeline, Fig. 1),
  * shared by the interpolation traversal and the Lorenzo predictor.
  *
  * For a value x with prediction p, the signed quantization index is
  * q = round((x - p) / (2e)); reconstruction is p + 2qe, which is within
  * the absolute bound e of x. Codes are shifted by `radius` so Huffman
  * sees non-negative symbols; code 0 is the escape for unpredictable
  * points, whose exact (float32) values are stored in a side list.
  *
  * Compression must continue predicting from RECONSTRUCTED values so that
  * decompression replays identically — [[quantize]] therefore returns the
  * reconstruction for the caller to write back into the working grid.
  *
  * @param record        keep the codes; a tuning trial that reads only
  *                      error statistics passes false and pays for no
  *                      code buffer
  * @param expectedCodes initial code-buffer size (the number of points,
  *                      when the caller knows it)
  */
final class LinearQuantizer(eb0: Double, val radius: Int = 32768, record: Boolean = true,
                            expectedCodes: Int = 4096) {
  require(eb0 > 0, s"error bound must be positive: $eb0")
  private var eb = eb0
  private var twoEb = 2 * eb0

  private val codes = new IntBuf(if (record) expectedCodes else 1)
  // Outliers are float32 in every stream, so their fp32 bits are kept.
  private val outlierBits = new IntBuf(64)

  /** Bound for the values that follow (level-wise bounds, Eq. 15). */
  def setErrorBound(e: Double): Unit = { eb = e; twoEb = 2 * e }

  /** Quantizes (value, prediction); records the code; returns the
    * reconstructed value the decompressor will produce.
    */
  def quantize(value: Double, pred: Double): Double = {
    val q = math.rint((value - pred) / twoEb)
    if (math.abs(q) < radius - 1) {
      val recon = pred + q * twoEb
      if (math.abs(recon - value) <= eb) {   // guards fp rounding at bin edges
        if (record) codes += (q.toInt + radius)
        return recon
      }
    }
    if (record) codes += 0
    // float32 storage is exact for our inputs (see GridData doc).
    val f = value.toFloat
    outlierBits += java.lang.Float.floatToRawIntBits(f)
    f.toDouble
  }

  def outlierCount: Int = outlierBits.length

  def codesArray: Array[Int] = codes.toArray
  def outliersArray: Array[Double] = outlierBits.toArray.map(b => java.lang.Float.intBitsToFloat(b).toDouble)
}

/** Decompression-side mirror: replays codes/outliers in the identical order. */
final class LinearDequantizer(eb0: Double, val radius: Int,
                              codes: Array[Int], outliers: Array[Double]) {
  private var twoEb = 2 * eb0
  private var ci = 0
  private var oi = 0

  /** Bound for the values that follow (level-wise bounds, Eq. 15). */
  def setErrorBound(e: Double): Unit = twoEb = 2 * e

  /** Reconstructs the next value given its prediction. */
  def next(pred: Double): Double = {
    val code = codes(ci); ci += 1
    if (code == 0) { val v = outliers(oi); oi += 1; v }
    else pred + (code - radius).toDouble * twoEb
  }
}

/** Receives every predicted point of a traversal (the interpolation levels
  * or the Lorenzo sweep) and returns the reconstructed value to write
  * back: it quantizes (compression and tuning trials, which may also
  * gather error statistics) or dequantizes (decompression). Exactly one of
  * `quant` and `dequant` is set. One final class for every traversal keeps
  * the predictors' call sites monomorphic.
  *
  * @param levels number of levels the statistics are split over
  */
private[core] final class PointSink(data: Array[Double], quant: LinearQuantizer,
                                    dequant: LinearDequantizer, levels: Int, stats: Boolean) {
  var count = 0L
  var sumAbs = 0.0
  var sumSq = 0.0
  var sumSqRecon = 0.0
  val levelAbs = new Array[Double](levels)
  val levelCnt = new Array[Long](levels)
  private var li = 0

  /** Switches to level `level` (1-based) and its bound. */
  def startLevel(level: Int, eb: Double): Unit = {
    li = level - 1
    if (quant != null) quant.setErrorBound(eb) else dequant.setErrorBound(eb)
  }

  def handle(idx: Int, pred: Double): Double =
    if (quant == null) dequant.next(pred)
    else {
      val v = data(idx)
      val recon = quant.quantize(v, pred)
      if (stats) {
        val err = v - pred
        count += 1; sumAbs += math.abs(err); sumSq += err * err
        levelAbs(li) += math.abs(err)
        levelCnt(li) += 1
        val re = recon - v
        sumSqRecon += re * re
      }
      recon
    }
}
