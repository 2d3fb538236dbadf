package perfbench

/** Order statistics used by every report line. */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The highest percentile that still has at least ten samples beyond it:
    * the 11th-largest sample, named as the percentile it sits at. Below 21
    * samples that percentile would fall under the median, which then
    * stands in.
    *
    * @return (percentile, value)
    */
  def tail(xs: Seq[Double]): (Double, Double) = {
    val s = xs.sorted
    val n = s.length
    if (n < 21) (50.0, median(xs))
    else (100.0 * (n - 10) / n, s(n - 11))
  }
}
