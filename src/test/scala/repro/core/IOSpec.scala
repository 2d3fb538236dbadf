package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class ByteIOSpec extends AnyFunSuite {

  test("scalar round-trip") {
    val w = new ByteWriter()
    w.writeByte(0xAB); w.writeInt(-123456); w.writeLong(1L << 60)
    w.writeDouble(math.Pi); w.writeFloat(2.5f); w.writeVarInt(300)
    val r = new ByteReader(w.toBytes)
    assert(r.readByte() == 0xAB)
    assert(r.readInt() == -123456)
    assert(r.readLong() == (1L << 60))
    assert(r.readDouble() == math.Pi)
    assert(r.readFloat() == 2.5f)
    assert(r.readVarInt() == 300)
  }

  test("varint round-trip across magnitudes") {
    val vals = Seq(0L, 1L, 127L, 128L, 255L, 16383L, 16384L, Int.MaxValue.toLong, 1L << 50)
    val w = new ByteWriter()
    vals.foreach(w.writeVarInt)
    val r = new ByteReader(w.toBytes)
    vals.foreach(v => assert(r.readVarInt() == v))
  }

  test("varint rejects negatives") {
    intercept[IllegalArgumentException](new ByteWriter().writeVarInt(-1))
  }

  test("array round-trips") {
    val w = new ByteWriter()
    w.writeIntArray(Array(1, -2, 3))
    w.writeFloatArray(Array(1.5f, -2.5f))
    w.writeDoubleArray(Array(math.E))
    w.writeBlob(Array[Byte](9, 8, 7))
    val r = new ByteReader(w.toBytes)
    assert(r.readIntArray().toSeq == Seq(1, -2, 3))
    assert(r.readFloatArray().toSeq == Seq(1.5f, -2.5f))
    assert(r.readDoubleArray().toSeq == Seq(math.E))
    assert(r.readBlob().toSeq == Seq[Byte](9, 8, 7))
  }

  test("writer grows past initial capacity") {
    val w = new ByteWriter(4)
    (0 until 1000).foreach(w.writeInt)
    val r = new ByteReader(w.toBytes)
    (0 until 1000).foreach(i => assert(r.readInt() == i))
  }

  test("randomized double arrays round-trip (seeded)") {
    val rnd = new Random(7)
    for (_ <- 0 until 20) {
      val xs = Array.fill(rnd.nextInt(200))(rnd.nextDouble() * 2e12 - 1e12)
      val w = new ByteWriter()
      w.writeDoubleArray(xs)
      assert(new ByteReader(w.toBytes).readDoubleArray().toSeq == xs.toSeq)
    }
  }

  test("empty blob and empty arrays") {
    val w = new ByteWriter()
    w.writeBlob(Array.emptyByteArray)
    w.writeIntArray(Array.emptyIntArray)
    val r = new ByteReader(w.toBytes)
    assert(r.readBlob().isEmpty)
    assert(r.readIntArray().isEmpty)
  }
}

class BitIOSpec extends AnyFunSuite {

  test("single bits round-trip") {
    val bits = Seq(1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1)
    val w = new BitWriter()
    bits.foreach(w.writeBit)
    val r = new BitReader(w.toBytes)
    bits.foreach(b => assert(r.readBit() == b))
  }

  test("multi-bit fields round-trip") {
    val w = new BitWriter()
    w.writeBits(0x3L, 2); w.writeBits(0x1234L, 16); w.writeBits(0x1FFFFFFFFFFFFFL, 53)
    val r = new BitReader(w.toBytes)
    assert(r.readBits(2) == 0x3L)
    assert(r.readBits(16) == 0x1234L)
    assert(r.readBits(53) == 0x1FFFFFFFFFFFFFL)
  }

  test("mixed bit/bits sequences round-trip") {
    val w = new BitWriter()
    w.writeBit(1); w.writeBits(0xABCDL, 16); w.writeBit(0); w.writeBits(5L, 3)
    // 21 + 43 bits fill the 64-bit accumulator exactly before the next bit
    w.writeBits(0x5A5A5A5A5AAL, 43); w.writeBit(1); w.writeBits((1L << 57) - 3, 57)
    val r = new BitReader(w.toBytes)
    assert(r.readBit() == 1)
    assert(r.readBits(16) == 0xABCDL)
    assert(r.readBit() == 0)
    assert(r.readBits(3) == 5L)
    assert(r.readBits(43) == 0x5A5A5A5A5AAL)
    assert(r.readBit() == 1)
    assert(r.readBits(57) == (1L << 57) - 3)
  }

  test("bitCount tracks written bits") {
    val w = new BitWriter()
    w.writeBits(0L, 13)
    assert(w.bitCount == 13)
    w.writeBit(1)
    assert(w.bitCount == 14)
  }

  test("reading past end yields zeros") {
    val w = new BitWriter()
    w.writeBit(1)
    val r = new BitReader(w.toBytes)
    assert(r.readBit() == 1)
    assert(r.readBits(20) == 0L)
  }

  test("toBytes keeps writer usable (repeatable)") {
    val w = new BitWriter()
    w.writeBits(0x5L, 3)
    val b1 = w.toBytes
    val b2 = w.toBytes
    assert(b1.toSeq == b2.toSeq)
    w.writeBit(1)
    assert(new BitReader(w.toBytes).readBits(4) == (0x5L | (1L << 3)))
  }

  test("many single bits followed by a wide field (accumulator overflow regression)") {
    // 60 single-bit writes fill the accumulator near 64 bits; a subsequent
    // wide writeBits must not drop bits (ZFP plane-coder scenario).
    val w = new BitWriter()
    val bits = Array.tabulate(60)(i => i % 2)
    bits.foreach(w.writeBit)
    val payload = 0x123456789ABCDL
    w.writeBits(payload, 50)
    val r = new BitReader(w.toBytes)
    bits.foreach(b => assert(r.readBit() == b))
    assert(r.readBits(50) == payload)
  }

  test("randomized bit patterns round-trip (seeded)") {
    val rnd = new Random(11)
    for (_ <- 0 until 20) {
      val bits = Array.fill(rnd.nextInt(500))(rnd.nextInt(2))
      val w = new BitWriter()
      bits.foreach(w.writeBit)
      val r = new BitReader(w.toBytes)
      bits.foreach(b => assert(r.readBit() == b))
    }
  }

  test("randomized field widths round-trip (seeded)") {
    val rnd = new Random(13)
    for (_ <- 0 until 20) {
      val fields = Array.fill(rnd.nextInt(100)) {
        val n = 1 + rnd.nextInt(57)
        (rnd.nextLong() & ((1L << n) - 1), n)
      }
      val w = new BitWriter()
      fields.foreach { case (v, n) => w.writeBits(v, n) }
      val r = new BitReader(w.toBytes)
      fields.foreach { case (v, n) => assert(r.readBits(n) == v) }
    }
  }
}
