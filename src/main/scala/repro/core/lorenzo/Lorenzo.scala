package repro.core.lorenzo

import repro.core._

/** Dynamic-order Lorenzo predictor (Section 6.5; design from Zhao et al.
  * HPDC'20, used by SZ2/SZ3). The order-m Lorenzo predictor estimates
  * each point from the m-neighborhood behind it in raster order:
  *
  *   pred(x) = − Σ_{0 ≤ k_j ≤ m, k ≠ 0}  Π_j (−1)^{k_j} C(m, k_j) · f(x − k)
  *
  * Order 1 reduces to the classic inclusion–exclusion stencil. Missing
  * neighbors (at the array boundary) contribute zero — the quantizer's
  * outlier escape absorbs the resulting first-row inaccuracy exactly as
  * in SZ. Compression predicts from reconstructed values so the
  * decompressor replays identically.
  */
object Lorenzo {

  /** Precomputed stencil: flat-index offsets and coefficients for the
    * interior; boundary points re-derive validity from coordinates.
    */
  private final class Stencil(dims: Array[Int], strides: Array[Int], order: Int) {
    val offsets: Array[Array[Int]] = {
      // all k-vectors with 0<=k_j<=order, k != 0
      val nd = dims.length
      val per = Array.fill(nd)(0 to order)
      def rec(j: Int, acc: List[Int]): Seq[List[Int]] =
        if (j == nd) Seq(acc.reverse) else per(j).flatMap(k => rec(j + 1, k :: acc))
      rec(0, Nil).filter(_.exists(_ != 0)).map(_.toArray).toArray
    }
    val coeffs: Array[Double] = offsets.map { k =>
      -k.map(kj => math.pow(-1, kj) * binom(order, kj)).product
    }
    val flat: Array[Int] = offsets.map(k => k.zip(strides).map { case (kj, s) => kj * s }.sum)

    private def binom(n: Int, k: Int): Double = {
      var r = 1.0; var i = 0
      while (i < k) { r = r * (n - i) / (i + 1); i += 1 }
      r
    }
  }

  /** Predict/quantize sweep shared by compression, trials and
    * decompression; `sink` returns the reconstructed value to store.
    */
  private def sweep(dims: Array[Int], data: Array[Double], order: Int, sink: PointSink): Unit = {
    val g = new GridData(dims, data)
    val st = new Stencil(dims, g.strides, order)
    val nd = dims.length
    val nOff = st.offsets.length
    val coords = new Array[Int](nd)
    var idx = 0
    val n = data.length
    while (idx < n) {
      // interior fast path: all coords >= order ⇒ every neighbor exists
      var interior = true
      var j = 0
      while (interior && j < nd) { if (coords(j) < order) interior = false; j += 1 }
      var pred = 0.0
      if (interior) {
        var t = 0
        while (t < nOff) { pred += st.coeffs(t) * data(idx - st.flat(t)); t += 1 }
      } else {
        var t = 0
        while (t < nOff) {
          val off = st.offsets(t)
          var ok = true
          var j2 = 0
          while (ok && j2 < nd) { if (coords(j2) - off(j2) < 0) ok = false; j2 += 1 }
          if (ok) pred += st.coeffs(t) * data(idx - st.flat(t))
          t += 1
        }
      }
      data(idx) = sink.handle(idx, pred)
      // advance coords (row-major, last dim fastest)
      j = nd - 1
      var carry = true
      while (carry && j >= 0) {
        coords(j) += 1
        if (coords(j) < dims(j)) carry = false else { coords(j) = 0; j -= 1 }
      }
      idx += 1
    }
  }

  /** Compresses with the given Lorenzo order; returns quantization codes
    * and outliers (mutates `work` into the reconstruction).
    */
  def compressWith(work: GridData, eb: Double, order: Int): (Array[Int], Array[Double]) = {
    val quant = new LinearQuantizer(eb, LevelInterpRadius, expectedCodes = work.size)
    sweep(work.dims, work.data, order, new PointSink(work.data, quant, null, 1, stats = false))
    (quant.codesArray, quant.outliersArray)
  }

  /** Inverse of [[compressWith]]. */
  def decompressWith(dims: Array[Int], eb: Double, order: Int,
                     codes: Array[Int], outliers: Array[Double]): GridData = {
    val data = new Array[Double](dims.map(_.toLong).product.toInt)
    val deq = new LinearDequantizer(eb, LevelInterpRadius, codes, outliers)
    sweep(dims, data, order, new PointSink(data, null, deq, 1, stats = false))
    new GridData(dims.clone(), data)
  }

  /** Trial statistics for the Lorenzo tuning step (Section 6.5). */
  final case class LorenzoTrial(order: Int, nPredicted: Long, meanAbsErr: Double,
                                reconMse: Double, estPayloadBits: Double)

  /** Evaluates Lorenzo orders 1 and 2 on `sample`, returning per-order
    * entropy-based size estimates and reconstruction MSE. FAZ's
    * multiplicative bit-rate adjustment is applied by the caller.
    */
  def trial(sample: GridData, eb: Double): Seq[LorenzoTrial] =
    Seq(1, 2).map { order =>
      val work = sample.copyGrid
      val quant = new LinearQuantizer(eb, LevelInterpRadius, expectedCodes = work.size)
      val sink = new PointSink(work.data, quant, null, 1, stats = true)
      sweep(work.dims, work.data, order, sink)
      val cnt = sink.count
      val codes = quant.codesArray
      val encodedBits =
        if (codes.isEmpty) 0.0
        else Lossless.compress(Huffman.encode(codes)).length * 8.0
      LorenzoTrial(order, cnt, if (cnt == 0) 0 else sink.sumAbs / cnt,
        if (cnt == 0) 0 else sink.sumSqRecon / cnt,
        encodedBits + 36.0 * quant.outlierCount)
    }

  private val LevelInterpRadius = repro.core.interp.LevelInterp.Radius
}
