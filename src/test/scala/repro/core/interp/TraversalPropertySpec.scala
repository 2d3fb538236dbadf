package repro.core.interp

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{GridData, Metrics}
import scala.collection.mutable.ArrayBuffer

/** The reference enumeration of a plan's traversal: a generic odometer
  * over each pass's lattice, and for multi-dimensional levels one scan of
  * the whole stride-s lattice per odd-count class that keeps the points
  * whose odd-coordinate count matches. It is the straightforward reading
  * of Sections 5.3-5.4; `LevelInterp`'s line loops must visit the same
  * points in the same order.
  */
object ReferenceTraversal {

  /** Flat indices of the predicted points, in traversal order. */
  def order(plan: InterpPlan): Array[Int] = {
    val dims = plan.dims
    val nd = dims.length
    val strides = new GridData(dims, new Array[Double](dims.product)).strides
    val out = ArrayBuffer.empty[Int]
    for (level <- plan.maxLevel to 1 by -1) {
      val s = 1 << (level - 1)
      val cfg = plan.levelConfigs(level - 1)
      cfg.paradigm match {
        case Paradigm.OneD(order) =>
          for (j <- order.indices) {
            val dim = order(j)
            if (s < dims(dim)) {
              val starts = new Array[Int](nd)
              val steps = Array.tabulate(nd) { k =>
                if (k == plan.frozenDim) 1
                else if (k == dim) 2 * s
                else if (order.indexOf(k) >= 0 && order.indexOf(k) < j) s
                else 2 * s
              }
              starts(dim) = s
              val loopOrder =
                if (plan.fvfi) Array.range(0, nd) else Array.range(0, nd).filterNot(_ == dim) :+ dim
              if (cfg.sameLevel && cfg.spline.isCubic) {
                steps(dim) = 4 * s
                odometer(dims, strides, starts, steps, loopOrder)((idx, _) => out += idx)
                starts(dim) = 3 * s
                odometer(dims, strides, starts, steps, loopOrder)((idx, _) => out += idx)
              } else odometer(dims, strides, starts, steps, loopOrder)((idx, _) => out += idx)
            }
          }
        case Paradigm.MultiDim =>
          val steps = Array.tabulate(nd)(k => if (k == plan.frozenDim) 1 else s)
          for (targetOdd <- 1 to plan.activeDims.length)
            odometer(dims, strides, new Array[Int](nd), steps, Array.range(0, nd)) { (idx, c) =>
              if (plan.activeDims.count(k => (c(k) / s) % 2 == 1) == targetOdd) out += idx
            }
      }
    }
    out.toArray
  }

  /** Flat indices of the anchors (stride 1 along a frozen dimension). */
  def anchors(plan: InterpPlan): Array[Int] = {
    val dims = plan.dims
    val nd = dims.length
    val strides = new GridData(dims, new Array[Double](dims.product)).strides
    val out = ArrayBuffer.empty[Int]
    val steps = Array.tabulate(nd)(k => if (k == plan.frozenDim) 1 else plan.anchorStride)
    odometer(dims, strides, new Array[Int](nd), steps, Array.range(0, nd))((idx, _) => out += idx)
    out.toArray
  }

  /** Calls f(flatIdx, coords) over a start/step lattice, `loopOrder` outermost first. */
  private def odometer(dims: Array[Int], strides: Array[Int], starts: Array[Int], steps: Array[Int],
                       loopOrder: Array[Int])(f: (Int, Array[Int]) => Unit): Unit = {
    if (dims.indices.exists(k => starts(k) >= dims(k))) return
    val c = starts.clone()
    var done = false
    while (!done) {
      f(dims.indices.map(k => c(k) * strides(k)).sum, c)
      var li = loopOrder.length - 1
      var carried = true
      while (carried && li >= 0) {
        val d = loopOrder(li)
        c(d) += steps(d)
        if (c(d) < dims(d)) carried = false else { c(d) = starts(d); li -= 1 }
      }
      if (carried) done = true
    }
  }
}

class TraversalPropertySpec extends AnyFunSuite {

  /** 1-D to 4-D extents of 1-70, halved on the largest side until the grid
    * has at most 40k points.
    */
  private val genDims: Gen[Array[Int]] = for {
    nd <- Gen.choose(1, 4)
    ext <- Gen.listOfN(nd, Gen.choose(1, 70))
  } yield {
    val d = ext.toArray
    while (d.map(_.toLong).product > 40000) {
      val k = d.indices.maxBy(d)
      d(k) = (d(k) + 1) / 2
    }
    d
  }

  private val genPlan: Gen[InterpPlan] = for {
    dims <- genDims
    frozen <- if (dims.length < 2) Gen.const(-1) else Gen.choose(-1, dims.length - 1)
    anchorStride <- Gen.oneOf(2, 4, 8, 16, 32)
    active = dims.indices.filterNot(_ == frozen).toList
    maxLevel = Integer.numberOfTrailingZeros(anchorStride)
    configs <- Gen.listOfN(maxLevel, for {
      spline <- Gen.oneOf(Spline.Kind.all.toSeq)
      sameLevel <- Gen.oneOf(false, true)
      paradigm <- Gen.oneOf(Gen.const(Paradigm.MultiDim),
        Gen.long.map(seed => Paradigm.OneD(new scala.util.Random(seed).shuffle(active).toArray)))
    } yield LevelConfig(spline, paradigm, sameLevel))
    ebs <- Gen.listOfN(maxLevel, Gen.choose(1e-4, 1e-1))
    weights <- Gen.listOfN(dims.length, Gen.choose(0.05, 1.0))
    fvfi <- Gen.oneOf(false, true)
    blockSize <- Gen.oneOf(0, 3, 8, 32)
    nBlocks = if (blockSize == 0) 0 else dims.map(d => (d + blockSize - 1) / blockSize).product
    blockSplines <- Gen.listOfN(nBlocks, Gen.choose(0, 2).map(_.toByte))
  } yield InterpPlan(dims, anchorStride, frozen, configs.toArray, ebs.toArray,
    weights.map(_.toFloat.toDouble).toArray, fvfi, blockSize, blockSplines.toArray)

  private def check(prop: Prop, n: Int): Unit = {
    val params = Test.Parameters.default.withMinSuccessfulTests(n).withInitialSeed(Seed(20240612L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result))
  }

  private def describe(p: InterpPlan): String =
    s"dims=${p.dims.mkString("x")} stride=${p.anchorStride} frozen=${p.frozenDim} fvfi=${p.fvfi} " +
      s"block=${p.blockSize} levels=${p.levelConfigs.map(c => s"${c.spline}/${c.paradigm}/${c.sameLevel}").mkString(";")}"

  test("every non-anchor point is handled exactly once, in the reference order") {
    check(Prop.forAll(genPlan) { plan =>
      val ref = ReferenceTraversal.order(plan)
      val anchors = ReferenceTraversal.anchors(plan)
      val n = plan.dims.product
      val covered = (ref ++ anchors).sorted
      val oracleOk = covered.sameElements(0 until n)
      // Decompressing all-escape codes whose outliers are 1, 2, 3, … writes
      // each point's visit number into it, so the grid shows the order.
      val back = LevelInterp.decompressWith(plan, new Array[Int](ref.length),
        Array.tabulate(ref.length)(k => k + 1.0), Array.fill(anchors.length)(-1.0))
      val orderOk = ref.indices.forall(k => back.data(ref(k)) == k + 1.0)
      val anchorsOk = anchors.forall(i => back.data(i) == -1.0)
      ((oracleOk :| "reference covers every point once") &&
        (orderOk :| "visit order matches the reference") &&
        (anchorsOk :| "anchors untouched")) :| describe(plan)
    }, 300)
  }

  test("compress -> decompress keeps every level's bound") {
    check(Prop.forAll(genPlan, Gen.choose(0L, 1000L)) { (plan, seed) =>
      val rnd = new scala.util.Random(seed)
      val grid = GridData.toFloatPrecision(GridData.tabulate(plan.dims) { c =>
        c.indices.map(k => math.sin(c(k) * (0.1 + 0.05 * k))).sum + 0.01 * rnd.nextGaussian()
      })
      val work = grid.copyGrid
      val res = LevelInterp.compressWith(work, plan)
      val back = LevelInterp.decompressWith(plan, res.codes, res.outliers, res.anchors)
      val maxErr = Metrics.maxAbsError(grid.data, back.data)
      ((maxErr <= plan.levelEbs.max) :| s"max error $maxErr > ${plan.levelEbs.max}") &&
        (back.data.sameElements(work.data) :| "decompression replays compression's reconstruction") :|
        describe(plan)
    }, 150)
  }
}
