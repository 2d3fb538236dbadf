package perfbench

import repro.core.GridData

/** Point-wise bound check of one reconstruction against its original. */
final case class Verdict(ok: Boolean, points: Long, maxErr: Double, sse: Double)

object Check {

  /** Passes when the dims match and every |x − x̂| ≤ absEb. */
  def apply(orig: GridData, recon: GridData, absEb: Double): Verdict =
    if (!java.util.Arrays.equals(orig.dims, recon.dims)) Verdict(ok = false, orig.size, Double.NaN, 0)
    else values(orig.data, recon.data, absEb)

  def values(orig: Array[Double], recon: Array[Double], absEb: Double): Verdict = {
    if (orig.length != recon.length) return Verdict(ok = false, orig.length, Double.NaN, 0)
    var maxErr = 0.0
    var sse = 0.0
    var bad = false
    var i = 0
    while (i < orig.length) {
      val d = math.abs(orig(i) - recon(i))
      if (!(d <= absEb)) bad = true // NaN counts as a violation
      if (d > maxErr) maxErr = d
      sse += d * d
      i += 1
    }
    Verdict(!bad, orig.length, maxErr, sse)
  }

  /** PSNR over the value range, as the paper defines it. */
  def psnr(range: Double, sse: Double, points: Long): Double = {
    val mse = sse / points
    if (mse <= 0) 999.0 else 20 * math.log10(range) - 10 * math.log10(mse)
  }
}
