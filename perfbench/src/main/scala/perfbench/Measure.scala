package perfbench

import scala.collection.mutable.ArrayBuffer

/** Timings of one direction (compress or decompress) over the passes of a
  * run, as measured. A pass is one sweep over the workload's fields; calls
  * within a pass are made one at a time, so a pass's wall time is the sum
  * of its calls.
  */
final class Direction {
  /** Per-call wall time per point (ns/pt) of each pass. */
  val passCallNsPerPt = ArrayBuffer.empty[Seq[Double]]
  val passS = ArrayBuffer.empty[Double]
  val passAllocPerPt = ArrayBuffer.empty[Double]
  private val callNsPerPt = ArrayBuffer.empty[Double]
  private var passNs = 0L
  private var passAlloc = 0L

  def call(ns: Long, points: Long, allocB: Long): Unit = {
    callNsPerPt += ns.toDouble / points; passNs += ns; passAlloc += allocB
  }

  def endPass(points: Long): Unit = {
    passCallNsPerPt += callNsPerPt.toSeq
    passS += Clock.s(passNs)
    passAllocPerPt += passAlloc.toDouble / points
    callNsPerPt.clear(); passNs = 0; passAlloc = 0
  }

  def passes: Int = passS.length
}

/** Set-up time: JVM start, the stages that run once (JIT warm-up, Spark
  * session start), and the median of the stages that are repeated.
  */
final class Setup(launchedAtMs: Double) {
  val jvmS: Double = (System.currentTimeMillis() - launchedAtMs) / 1e3
  private val repeatedS = ArrayBuffer.empty[Double]
  private var onceNs = 0L

  /** Runs `body` `times` times, recording each; returns the last result. */
  def repeated[T](times: Int)(body: => T): T = {
    var out: Option[T] = None
    (1 to times).foreach { _ =>
      val t0 = Clock.now()
      out = Some(body)
      repeatedS += Clock.s(Clock.now() - t0)
    }
    out.get
  }

  def once[T](body: => T): T = {
    val t0 = Clock.now()
    try body finally onceNs += Clock.now() - t0
  }

  def repeatedMedianS: Double = Stats.median(repeatedS.toSeq)

  def totalS: Double = jvmS + Clock.s(onceNs) + repeatedMedianS

  def describe: String =
    f"jvm ${jvmS}%.3f s + once ${Clock.s(onceNs)}%.3f s + median of ${repeatedS.length} repeated " +
      f"$repeatedMedianS%.3f s"
}

/** Outputs of the passes that the correctness gate and the ratios need. */
final class Outcome {
  /** fp32 bytes of one pass's fields, and the compressed bytes the last
    * pass stored.
    */
  var rawBytesPerPass = 0L
  var compressedBytes = 0L
  private val psnrs = ArrayBuffer.empty[Double]
  def psnr(v: Double): Unit = psnrs += v
  def cr: Double = rawBytesPerPass.toDouble / compressedBytes
  def meanPsnr: Double = psnrs.sum / psnrs.length
}

object EndToEnd {

  /** Adds every end-to-end metric from the measured directions. The times
    * of the passes are multiplied by `passScale` and the set-up time by
    * `setupScale`, the host speed scales measured while each ran (see
    * [[HostSpeed]]); the wall-clock figures are printed as lines.
    * The per-call percentiles use the first `callPasses` passes only, so
    * their sample count does not depend on how many passes fit in the run.
    * Each call's time is divided by its points, so the tail is not simply
    * the time of the largest fields.
    */
  def report(r: Report, c: Direction, d: Direction, unitsPerPass: Int, callPasses: Int,
             outcome: Outcome, setup: Setup, setupScale: Double, passScale: Double): Unit = {
    val mbPerPass = outcome.rawBytesPerPass / 1e6
    def times(prefix: String, dir: Direction): Unit = {
      val calls = dir.passCallNsPerPt.take(callPasses).flatten.toSeq.map(_ * passScale)
      val n = s"n=${calls.length} calls of the first $callPasses passes"
      val wallS = Stats.median(dir.passS.toSeq)
      r.add(s"${prefix}_MBps", mbPerPass / (wallS * passScale), "MB/s", s"median of ${dir.passes} passes")
      r.add(s"${prefix}_ns_per_pt_p50", Stats.median(calls), "ns/pt", n)
      val (p, v) = Stats.tail(calls)
      r.add(s"${prefix}_ns_per_pt_tail", v, "ns/pt", f"p$p%.1f, $n")
      r.info(f"wall-clock ${prefix}_MBps ${mbPerPass / wallS}%.4f MB/s")
      val perField = dir.passCallNsPerPt.filter(_.length == dir.passCallNsPerPt.head.length).transpose
      r.info(s"$prefix ns/pt per field, median over passes: " +
        perField.map(xs => f"${Stats.median(xs.toSeq) * passScale}%.1f").mkString(" "))
    }
    times("compress", c)
    times("decompress", d)
    r.add("cr", outcome.cr, "ratio", s"${outcome.rawBytesPerPass} raw / ${outcome.compressedBytes} compressed bytes of a pass")
    r.add("psnr_db", outcome.meanPsnr, "dB", "mean over fields")
    r.add("compress_alloc_B_per_pt", Stats.median(c.passAllocPerPt.toSeq), "B/pt", "all JVM threads")
    r.add("decompress_alloc_B_per_pt", Stats.median(d.passAllocPerPt.toSeq), "B/pt", "all JVM threads")
    val roundS = (Stats.median(c.passS.toSeq) + Stats.median(d.passS.toSeq)) * passScale
    r.add("roundtrip_blocks_per_s", unitsPerPass / roundS, "1/s", s"$unitsPerPass blocks per pass")
    r.add("setup_s", setup.totalS * setupScale, "s", f"(${setup.describe}) x $setupScale%.4f")
    r.info(f"wall-clock setup_s ${setup.totalS}%.4f s")
  }
}
