package repro

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Compressor
import repro.core.interp.Paradigm
import repro.core.tuning.AutoTuner
import scala.io.Source

/** Every codec's compressed stream on the fixed inputs of
  * [[GoldenDigests]] must hash to the recorded SHA-256. Speed work on the
  * traversal, the tuner or the entropy stage must keep these streams
  * byte-identical; a deliberate format change regenerates the table (see
  * [[GoldenDigests]]).
  */
class GoldenStreamSpec extends AnyFunSuite {

  private lazy val golden: Seq[GoldenDigests.Row] = {
    val in = getClass.getResourceAsStream(GoldenDigests.ResourceName)
    assert(in != null, s"missing resource ${GoldenDigests.ResourceName}")
    val src = Source.fromInputStream(in, "UTF-8")
    try src.getLines().filter(_.nonEmpty).map(GoldenDigests.Row.parse).toVector
    finally src.close()
  }

  private def key(r: GoldenDigests.Row) = (r.input, r.codec, r.eps)

  test("the golden table has one row per input, accepting codec and bound") {
    val expected = for {
      (label, grid) <- GoldenDigests.inputs
      codec <- GoldenDigests.codecs if GoldenDigests.accepts(codec, grid.ndim)
      eps <- GoldenDigests.epsilons
    } yield (label, codec, eps)
    assert(golden.map(key) == expected)
    assert(GoldenDigests.inputs.map(_._2.ndim).toSet == Set(1, 2, 3, 4))
  }

  GoldenDigests.inputs.foreach { case (label, grid) =>
    test(s"streams are byte-identical to the golden digests on $label") {
      val want = golden.filter(_.input == label).map(r => key(r) -> r.sha256).toMap
      val got = GoldenDigests.rows(label, grid)
      assert(got.map(key).toSet == want.keySet)
      val changed = got.filter(r => want(key(r)) != r.sha256)
      assert(changed.isEmpty,
        s"stream digests changed for ${changed.map(r => f"${r.codec}@${r.eps}%.0e").mkString(", ")}")
    }
  }

  test("the golden inputs reach every tuner decision HPEZ can make") {
    val results = for {
      (_, grid) <- GoldenDigests.inputs
      eps <- GoldenDigests.epsilons
    } yield AutoTuner.tune(grid, Compressor.absoluteBound(grid, eps),
      AutoTuner.Features.hpez, AutoTuner.Target.CR)
    val interp = results.filterNot(_.useLorenzo).map(_.plan)
    assert(results.exists(_.useLorenzo), "no Lorenzo choice")
    assert(interp.exists(_.levelConfigs.exists(_.paradigm == Paradigm.MultiDim)), "no MultiDim level")
    assert(interp.exists(_.levelConfigs.exists(c =>
      c.sameLevel && c.spline.isCubic && c.paradigm != Paradigm.MultiDim)), "no same-level cubic level")
    assert(interp.exists(_.frozenDim >= 0), "no frozen dimension")
    assert(interp.exists { p =>
      val global = p.levelConfigs.head.spline.id.toByte
      p.blockSize > 0 && p.blockSplines.exists(_ != global)
    }, "no block-wise spline override")
  }
}
