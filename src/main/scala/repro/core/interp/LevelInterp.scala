package repro.core.interp

import repro.core._

/** Anchor-based level-wise interpolation predictor (Sections 5 and 6.3).
  *
  * One traversal engine serves compression, decompression and tuning
  * trials: the traversal order is fully determined by the [[InterpPlan]],
  * so the decompressor replays the exact prediction sequence of the
  * compressor. During compression each predicted point is immediately
  * replaced by its reconstruction, guaranteeing both sides predict from
  * identical data.
  *
  * Features implemented here:
  *  - hierarchical levels from stride anchorStride/2 down to 1;
  *  - lossless anchors on the anchorStride lattice (stride 1 along a
  *    frozen dimension — Section 6.3);
  *  - 1D-style passes with a configurable dimension order, or the
  *    symmetric multi-dimensional paradigm (Section 5.3, Eq. 9);
  *  - linear / not-a-knot cubic / natural cubic splines (Section 5.2);
  *  - the same-level cubic two-step split (Section 5.4.2), honoured in
  *    1D-style cubic passes;
  *  - fast-varying-first traversal toggle (Section 5.4.1);
  *  - per-level error bounds (Eq. 15);
  *  - per-block spline override from block-wise tuning (Section 6.6).
  *
  * Traversal is a set of line loops, as in SZ3's and QoZ's C++ kernels:
  * an odometer steps every dimension except the innermost loop dimension,
  * and a tight strided loop walks that dimension. A 1D-style pass is one
  * such lattice. A multi-dimensional level handles its points class by
  * class (one odd coordinate, then two, …); within a class the parity of
  * a line's outer coordinates fixes the parity, hence the start, of its
  * inner loop, so every point of the class is visited exactly once, in
  * row-major order, with no per-point parity test. The block-wise spline
  * is resolved once per block-long segment of a line, and every point
  * goes through one final [[repro.core.PointSink]], so the kernel's call
  * sites stay monomorphic.
  */
object LevelInterp {

  /** Quantizer code radius shared by all interpolation compressors. */
  val Radius: Int = 32768

  /** Output of a compression traversal. */
  final case class InterpResult(codes: Array[Int], outliers: Array[Double], anchors: Array[Double])

  /** Aggregate statistics from a tuning trial (Section 6.2).
    *
    * @param sumSqRecon     Σ (reconstruction − original)² — drives the
    *                       tuner's PSNR estimate
    * @param estPayloadBits Huffman + Zstd size of the codes plus the
    *                       outliers; NaN for a trial run with
    *                       `encode = false`, which keeps no codes
    * @param perLevelAbs    Σ |prediction error| per level (index l−1)
    * @param perLevelCnt    predicted-point count per level
    */
  final case class TrialStats(nPredicted: Long, sumAbsErr: Double, sumSqErr: Double,
                              sumSqRecon: Double, estPayloadBits: Double, nAnchors: Long,
                              perLevelAbs: Array[Double], perLevelCnt: Array[Long]) {
    def meanAbsErr: Double = if (nPredicted == 0) 0 else sumAbsErr / nPredicted
    def mse: Double = if (nPredicted == 0) 0 else sumSqErr / nPredicted
    def reconMse: Double = if (nPredicted == 0) 0 else sumSqRecon / nPredicted
    /** Estimated total bits incl. fp32 anchors. */
    def totalBits: Double = estPayloadBits + 32.0 * nAnchors
    def meanAbsAtLevel(l: Int): Double = {
      val c = perLevelCnt(l - 1)
      if (c == 0) Double.PositiveInfinity else perLevelAbs(l - 1) / c
    }
  }

  // ---------------------------------------------------------------------
  // Anchors

  def countAnchors(dims: Array[Int], anchorStride: Int, frozenDim: Int): Long = {
    var n = 1L
    var k = 0
    while (k < dims.length) {
      n *= (if (k == frozenDim) dims(k).toLong else ((dims(k) - 1) / anchorStride + 1).toLong)
      k += 1
    }
    n
  }

  /** Flat indices of the anchors in row-major order. */
  private def anchorIndices(dims: Array[Int], strides: Array[Int], anchorStride: Int,
                            frozenDim: Int): Array[Int] = {
    val nd = dims.length
    val steps = Array.tabulate(nd)(k => if (k == frozenDim) 1 else anchorStride)
    val out = new Array[Int](countAnchors(dims, anchorStride, frozenDim).toInt)
    val lines = new Lines(dims, strides, new Array[Int](nd), steps, Array.range(0, nd))
    val step = steps(nd - 1)
    var ai = 0
    while (lines.next()) {
      var c = 0
      var idx = lines.base
      while (c < dims(nd - 1)) { out(ai) = idx; ai += 1; c += step; idx += step }
    }
    out
  }

  /** The bound of the first level traversed (the coarsest). */
  private def firstEb(plan: InterpPlan): Double = plan.levelEbs(plan.maxLevel - 1)

  // ---------------------------------------------------------------------
  // Public entry points

  /** Runs the prediction traversal over `work` (which is mutated into the
    * reconstruction) and collects quantization codes / outliers / anchors.
    */
  def compressWith(work: GridData, plan: InterpPlan): InterpResult = {
    val anchorIdx = anchorIndices(work.dims, work.strides, plan.anchorStride, plan.frozenDim)
    val anchors = new Array[Double](anchorIdx.length)
    var ai = 0
    while (ai < anchorIdx.length) {
      val v = work.data(anchorIdx(ai)).toFloat.toDouble // fp32 lossless storage (inputs are fp32-exact)
      anchors(ai) = v; work.data(anchorIdx(ai)) = v; ai += 1
    }
    val quant = new LinearQuantizer(firstEb(plan), Radius, expectedCodes = work.size - anchors.length)
    traverse(work, plan, new PointSink(work.data, quant, null, plan.maxLevel, stats = false))
    InterpResult(quant.codesArray, quant.outliersArray, anchors)
  }

  /** Rebuilds the grid from codes/outliers/anchors by replaying the
    * compressor's traversal.
    */
  def decompressWith(plan: InterpPlan, codes: Array[Int], outliers: Array[Double],
                     anchors: Array[Double]): GridData = {
    val grid = new GridData(plan.dims.clone(), new Array[Double](plan.dims.map(_.toLong).product.toInt))
    val anchorIdx = anchorIndices(grid.dims, grid.strides, plan.anchorStride, plan.frozenDim)
    var ai = 0
    while (ai < anchorIdx.length) { grid.data(anchorIdx(ai)) = anchors(ai); ai += 1 }
    val dequant = new LinearDequantizer(firstEb(plan), Radius, codes, outliers)
    traverse(grid, plan, new PointSink(grid.data, null, dequant, plan.maxLevel, stats = false))
    grid
  }

  /** Tuning trial: runs the traversal on a COPY of `grid`, quantizing with
    * the plan's error bounds, and returns error/size statistics.
    *
    * With `encode` the codes go through the REAL entropy stage (Huffman +
    * Zstd) for the size estimate: Shannon entropy misranks configurations
    * because it ignores both the Huffman table and Zstd's gains on
    * concentrated streams. Callers that read only prediction-error
    * statistics pass `encode = false`; such a trial keeps no codes and
    * leaves `estPayloadBits` NaN.
    */
  def trial(grid: GridData, plan: InterpPlan, encode: Boolean = true): TrialStats = {
    val work = grid.copyGrid
    val anchorIdx = anchorIndices(work.dims, work.strides, plan.anchorStride, plan.frozenDim)
    var ai = 0
    while (ai < anchorIdx.length) {
      work.data(anchorIdx(ai)) = work.data(anchorIdx(ai)).toFloat.toDouble; ai += 1
    }
    val quant = new LinearQuantizer(firstEb(plan), Radius, record = encode,
      expectedCodes = work.size - anchorIdx.length)
    val sink = new PointSink(work.data, quant, null, plan.maxLevel, stats = true)
    traverse(work, plan, sink)
    val payloadBits =
      if (!encode) Double.NaN
      else {
        val codes = quant.codesArray
        val encodedBits = if (codes.isEmpty) 0.0 else Lossless.compress(Huffman.encode(codes)).length * 8.0
        encodedBits + 36.0 * quant.outlierCount
      }
    TrialStats(sink.count, sink.sumAbs, sink.sumSq, sink.sumSqRecon, payloadBits,
      anchorIdx.length.toLong, sink.levelAbs, sink.levelCnt)
  }

  // ---------------------------------------------------------------------
  // Traversal

  /** Drives all levels and passes, writing each point's reconstruction
    * (returned by the sink) back into `grid.data`.
    */
  private def traverse(grid: GridData, plan: InterpPlan, sink: PointSink): Unit = {
    val dims = grid.dims
    val nd = dims.length
    val block = new BlockLookup(plan, dims)
    var level = plan.maxLevel
    while (level >= 1) {
      val s = 1 << (level - 1)
      val cfg = plan.levelConfigs(level - 1)
      sink.startLevel(level, plan.levelEbs(level - 1))
      cfg.paradigm match {
        case Paradigm.OneD(order) =>
          val useSameLevel = cfg.sameLevel && cfg.spline.isCubic
          var j = 0
          while (j < order.length) {
            val dim = order(j)
            if (s < dims(dim)) { // pass has points only if stride fits
              val starts = new Array[Int](nd)
              val steps = new Array[Int](nd)
              var k = 0
              while (k < nd) {
                if (k == plan.frozenDim) { starts(k) = 0; steps(k) = 1 }
                else if (k == dim) { starts(k) = s; steps(k) = 2 * s }
                else {
                  val pos = order.indexOf(k)
                  if (pos >= 0 && pos < j) { starts(k) = 0; steps(k) = s }      // earlier dim: done at stride s
                  else { starts(k) = 0; steps(k) = 2 * s }                       // later dim: still at 2s
                }
                k += 1
              }
              val loopOrder = buildLoopOrder(nd, dim, plan.fvfi)
              if (useSameLevel) {
                // Step 1: positions ≡ s (mod 4s) — inter-level 4-point stencil.
                starts(dim) = s; steps(dim) = 4 * s
                run1DPass(grid, block, dim, s, starts, steps, loopOrder, cfg.spline, sameLevelStep = false, sink)
                // Step 2: positions ≡ 3s (mod 4s) — same-level 6-point stencil.
                if (3 * s < dims(dim)) {
                  starts(dim) = 3 * s; steps(dim) = 4 * s
                  run1DPass(grid, block, dim, s, starts, steps, loopOrder, cfg.spline, sameLevelStep = true, sink)
                }
              } else {
                run1DPass(grid, block, dim, s, starts, steps, loopOrder, cfg.spline, sameLevelStep = false, sink)
              }
            }
            j += 1
          }
        case Paradigm.MultiDim =>
          runMultiDim(grid, plan, block, s, cfg.spline, sink)
      }
      level -= 1
    }
  }

  /** Loop nesting order, outermost first. FVFI puts the fastest-varying
    * (last) dimension innermost; the QoZ order puts the interpolation
    * dimension innermost (Fig. 5).
    */
  private def buildLoopOrder(nd: Int, interpDim: Int, fvfi: Boolean): Array[Int] =
    if (fvfi) Array.range(0, nd)
    else Array.range(0, nd).filterNot(_ == interpDim) :+ interpDim

  /** The lines of a start/step lattice, in row-major order of
    * `loopOrder` (outermost first): [[next]] steps an odometer over every
    * dimension except the innermost one, `loopOrder.last`, which the
    * caller walks as a strided loop from [[base]]. [[coords]] holds the
    * line's outer coordinates; the caller may use the inner entry.
    */
  private final class Lines(dims: Array[Int], strides: Array[Int], starts: Array[Int],
                            steps: Array[Int], loopOrder: Array[Int]) {
    val coords: Array[Int] = starts.clone()
    /** Flat index of the current line's first point. */
    var base: Int = 0
    private var pending = true // the first line has not been returned yet
    private var done = false
    locally {
      var k = 0
      while (k < dims.length) {
        if (starts(k) >= dims(k)) done = true // empty lattice
        base += starts(k) * strides(k)
        k += 1
      }
    }

    def next(): Boolean = {
      if (done) return false
      if (pending) { pending = false; return true }
      var li = loopOrder.length - 2
      while (li >= 0) {
        val d = loopOrder(li)
        coords(d) += steps(d)
        base += steps(d) * strides(d)
        if (coords(d) < dims(d)) return true
        base -= (coords(d) - starts(d)) * strides(d)
        coords(d) = starts(d)
        li -= 1
      }
      done = true
      false
    }
  }

  /** One 1D-style interpolation pass along `dim` at stride `s`. */
  private def run1DPass(grid: GridData, block: BlockLookup, dim: Int, s: Int,
                        starts: Array[Int], steps: Array[Int], loopOrder: Array[Int],
                        spline: Spline.Kind, sameLevelStep: Boolean, sink: PointSink): Unit = {
    val data = grid.data
    val n = grid.dims(dim)
    val st = grid.strides(dim)
    val inner = loopOrder(loopOrder.length - 1)
    val along = inner == dim
    val end = grid.dims(inner)
    val step = steps(inner)
    val idxStep = step * grid.strides(inner)
    val lines = new Lines(grid.dims, grid.strides, starts, steps, loopOrder)
    val coords = lines.coords
    while (lines.next()) {
      val lineP = coords(dim) // the interpolation coordinate, unless it is the inner one
      var c = starts(inner)
      var idx = lines.base
      while (c < end) {
        coords(inner) = c
        val kind = block.splineAt(coords, spline)
        val segEnd = block.segmentEnd(c, end)
        while (c < segEnd) {
          val pred = predictAlong(data, idx, if (along) c else lineP, n, st, s, kind, sameLevelStep)
          data(idx) = sink.handle(idx, pred)
          c += step; idx += idxStep
        }
      }
    }
  }

  /** Multi-dimensional passes: points with 1 odd coordinate first, then 2,
    * then 3, … (Section 5.3). Prediction is the 1/σ²-weighted combination
    * of the available 1-D interpolants (Eq. 9 with Eq. 12 weights).
    *
    * Lines run along the last dimension. A line whose outer coordinates
    * have `targetOdd` odd (active) entries holds the class's points at
    * even inner coordinates; one with `targetOdd − 1` holds them at odd
    * ones (if the last dimension is active); any other line holds none.
    */
  private def runMultiDim(grid: GridData, plan: InterpPlan, block: BlockLookup, s: Int,
                          spline: Spline.Kind, sink: PointSink): Unit = {
    val dims = grid.dims
    val strides = grid.strides
    val nd = dims.length
    val data = grid.data
    val weights = plan.dimWeights
    val inner = nd - 1
    val innerActive = inner != plan.frozenDim
    val outerActive = plan.activeDims.filter(_ != inner)
    val starts = new Array[Int](nd)
    val steps = Array.tabulate(nd)(k => if (k == plan.frozenDim) 1 else s)
    val loopOrder = Array.range(0, nd)
    val end = dims(inner)
    val step = if (innerActive) 2 * s else 1
    val idxStep = step * strides(inner)
    val oddDims = new Array[Int](nd) // the current line's odd dimensions, ascending
    var targetOdd = 1
    while (targetOdd <= plan.activeDims.length) {
      val lines = new Lines(dims, strides, starts, steps, loopOrder)
      val coords = lines.coords
      while (lines.next()) {
        var nOdd = 0
        var a = 0
        while (a < outerActive.length) {
          val k = outerActive(a)
          if (((coords(k) / s) & 1) == 1) { oddDims(nOdd) = k; nOdd += 1 }
          a += 1
        }
        val innerOdd = innerActive && nOdd == targetOdd - 1
        if (innerOdd || nOdd == targetOdd) {
          if (innerOdd) { oddDims(nOdd) = inner; nOdd += 1 }
          var c = if (innerOdd) s else 0
          var idx = lines.base + c * strides(inner)
          while (c < end) {
            coords(inner) = c
            val kind = block.splineAt(coords, spline)
            val segEnd = block.segmentEnd(c, end)
            while (c < segEnd) {
              var wsum = 0.0
              var psum = 0.0
              var j = 0
              while (j < nOdd) {
                val k = oddDims(j)
                val w = weights(k)
                psum += w * predictAlong(data, idx, if (k == inner) c else coords(k), dims(k), strides(k),
                  s, kind, sameLevelStep = false)
                wsum += w
                j += 1
              }
              val pred = if (wsum > 0) psum / wsum else data(idx)
              data(idx) = sink.handle(idx, pred)
              c += step; idx += idxStep
            }
          }
        }
      }
      targetOdd += 1
    }
  }

  /** Resolves the effective spline kind for a point, honouring the
    * block-wise override (Section 6.6).
    */
  private final class BlockLookup(plan: InterpPlan, dims: Array[Int]) {
    private val enabled = plan.blockSize > 0 && plan.blockSplines.nonEmpty
    private val bs = math.max(1, plan.blockSize)
    private val bDims = dims.map(d => (d + bs - 1) / bs)
    private val bStrides = {
      val a = new Array[Int](dims.length)
      if (dims.nonEmpty) {
        a(dims.length - 1) = 1
        var i = dims.length - 2
        while (i >= 0) { a(i) = a(i + 1) * bDims(i + 1); i -= 1 }
      }
      a
    }
    def splineAt(coords: Array[Int], default: Spline.Kind): Spline.Kind =
      if (!enabled) default
      else {
        var bid = 0
        var k = 0
        while (k < coords.length) { bid += (coords(k) / bs) * bStrides(k); k += 1 }
        Spline.Kind.all(plan.blockSplines(bid))
      }
    /** End (exclusive, at most `end`) of the block-long segment of a line
      * that starts at inner coordinate `c`: one spline serves it all.
      */
    def segmentEnd(c: Int, end: Int): Int =
      if (!enabled) end else math.min(end, (c / bs + 1) * bs)
  }

  /** 1-D spline prediction for position p (stride s) along one dimension,
    * with boundary fallbacks: full stencil → linear → extrapolate → copy.
    * Split into small methods so the JIT inlines each into the line loops.
    */
  private def predictAlong(data: Array[Double], idx: Int, p: Int, n: Int, st: Int,
                           s: Int, kind: Spline.Kind, sameLevelStep: Boolean): Double = {
    val off = s * st
    if (p + s >= n) predictEdge(data, idx, p - 3 * s >= 0, off)
    else if (!kind.isCubic) Spline.linear(data(idx - off), data(idx + off))
    else if (sameLevelStep) predictSameLevel(data, idx, p, n, s, off, kind)
    else predictCubic(data, idx, p, n, s, off, kind)
  }

  /** p + s is outside the grid: extrapolate from the left, or copy. */
  private def predictEdge(data: Array[Double], idx: Int, hasM3: Boolean, off: Int): Double =
    if (hasM3) Spline.extrapolate(data(idx - 3 * off), data(idx - off))
    else data(idx - off)

  /** p ≡ 3s (mod 4s): left neighbors at −s, −2s, −3s always exist. */
  private def predictSameLevel(data: Array[Double], idx: Int, p: Int, n: Int, s: Int, off: Int,
                               kind: Spline.Kind): Double = {
    val hasP3 = p + 3 * s < n
    val hasP2 = p + 2 * s < n
    if (kind == Spline.Kind.Natural && hasP3)
      Spline.sameLevelNatural(data(idx - 3 * off), data(idx - 2 * off), data(idx - off),
        data(idx + off), data(idx + 2 * off), data(idx + 3 * off))
    else if (hasP2)
      Spline.sameLevelNotAKnot(data(idx - 2 * off), data(idx - off),
        data(idx + off), data(idx + 2 * off))
    else
      Spline.linear(data(idx - off), data(idx + off))
  }

  /** Inter-level cubic stencil at ±s, ±3s; linear where it does not fit. */
  private def predictCubic(data: Array[Double], idx: Int, p: Int, n: Int, s: Int, off: Int,
                           kind: Spline.Kind): Double =
    if (p - 3 * s >= 0 && p + 3 * s < n) {
      if (kind == Spline.Kind.Natural)
        Spline.natural(data(idx - 3 * off), data(idx - off), data(idx + off), data(idx + 3 * off))
      else
        Spline.notAKnot(data(idx - 3 * off), data(idx - off), data(idx + off), data(idx + 3 * off))
    } else Spline.linear(data(idx - off), data(idx + off))
}
