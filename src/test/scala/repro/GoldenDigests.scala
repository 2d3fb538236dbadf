package repro

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import java.security.MessageDigest
import repro.core.{Compressor, GridData}
import repro.data.SciData
import repro.eval.Eval
import scala.util.Random

/** The golden stream table: the SHA-256 of every codec's compressed
  * stream on a fixed set of small inputs, which `GoldenStreamSpec`
  * asserts. A change that is meant to keep every stream byte-identical
  * must leave this table unchanged; a deliberate format change regenerates
  * it with
  *
  * {{{
  * sbt "Test/runMain repro.GoldenDigests src/test/resources/golden-streams.tsv"
  * }}}
  *
  * (without an argument the table is printed instead).
  */
object GoldenDigests {

  final case class Row(input: String, codec: String, eps: Double, sha256: String) {
    def line: String = f"$input\t$codec\t$eps%.0e\t$sha256"
  }

  object Row {
    def parse(line: String): Row = line.split('\t') match {
      case Array(input, codec, eps, sha) => Row(input, codec, eps.toDouble, sha)
      case _ => throw new IllegalArgumentException(s"bad golden row: $line")
    }
  }

  val ResourceName: String = "/golden-streams.tsv"

  /** All seven codecs plus the FVFI ablation variant. */
  val codecs: Seq[String] = Eval.CompressorNames :+ "HPEZ (w/o FVFI)"

  val epsilons: Seq[Double] = Seq(1e-3, 1e-5)

  private def field(dataset: String, shrink: Double): (String, GridData) = {
    val ref = SciData.fields(dataset, shrink).head
    ref.toString -> SciData.generate(ref)
  }

  private def seeded(label: String, dims: Array[Int], seed: Long)
                    (f: (Array[Int], Random) => Double): (String, GridData) = {
    val rnd = new Random(seed)
    label -> GridData.toFloatPrecision(GridData.tabulate(dims)(c => f(c, rnd)))
  }

  /** Inputs chosen so that HPEZ's tuned plans reach multi-dimensional
    * levels and same-level cubic (Miranda), a frozen dimension (SegSalt),
    * block-wise spline overrides (RTM, line) and the Lorenzo predictor
    * (APS at 1e-5, separable noise); `GoldenStreamSpec` checks that.
    */
  lazy val inputs: Seq[(String, GridData)] = Seq(
    field("Miranda", 0.25),
    field("SegSalt", 0.3),
    field("RTM", 0.3),
    field("APS", 0.1),
    seeded("line(3000)", Array(3000), 11) { (c, r) =>
      3 * math.sin(c(0) * 0.01) + 0.1 * r.nextGaussian()
    },
    seeded("plane(70x90)", Array(70, 90), 12) { (c, r) =>
      math.sin(c(0) * 0.1) * math.cos(c(1) * 0.07) + 0.01 * r.nextGaussian()
    },
    seeded("hyper(5x8x20x24)", Array(5, 8, 20, 24), 13) { (c, r) =>
      math.sin(c(0) * 0.5 + c(1) * 0.3) + math.cos(c(2) * 0.1) * math.sin(c(3) * 0.12) +
        0.001 * r.nextGaussian()
    }, {
      // A sum of per-axis white noise: rough along every axis for the
      // interpolators, exactly predictable for first-order Lorenzo.
      val r = new Random(14)
      val t = Array.fill(3, 24)(r.nextDouble())
      seeded("separable-noise(20x22x24)", Array(20, 22, 24), 14) { (c, _) =>
        t(0)(c(0)) + t(1)(c(1)) + t(2)(c(2))
      }
    },
  )

  def sha256(bytes: Array[Byte]): String =
    MessageDigest.getInstance("SHA-256").digest(bytes).map(b => f"${b & 0xff}%02x").mkString

  /** ZFP-like takes 1-3 dimensions and TTHRESH-like 2-3; the others any. */
  def accepts(codec: String, nd: Int): Boolean = codec match {
    case "ZFP 0.5.5" => nd <= 3
    case "TTHRESH"   => nd >= 2 && nd <= 3
    case _           => true
  }

  /** The rows of one input, in table order (codec, then ε). */
  def rows(input: String, grid: GridData): Seq[Row] =
    for (codec <- codecs if accepts(codec, grid.ndim); eps <- epsilons) yield {
      val bytes = Eval.compressor(codec).compress(grid, Compressor.absoluteBound(grid, eps))
      Row(input, codec, eps, sha256(bytes))
    }

  def table: Seq[Row] = inputs.flatMap { case (label, grid) => rows(label, grid) }

  def main(args: Array[String]): Unit = {
    val text = table.map(_.line).mkString("", "\n", "\n")
    if (args.isEmpty) print(text)
    else Files.write(Paths.get(args(0)), text.getBytes(StandardCharsets.UTF_8))
  }
}
