package perfbench

import java.io.File

import repro.core.GridData
import repro.sparklayer.BlockStore

/** Benchmark entry point; `run.py` builds the classpath and starts it.
  *
  * Usage: perfbench.Main --workload spark-e3|spark-e5 --seed N
  *          --seconds S --trace 0|1 --work DIR --launched-at EPOCH_MS
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        work: File, launchedAtMs: Double)

  private val GenThreads = 4
  private val SetupRepeats = 3
  private val Warmups = 1
  /** Host speed sweeps after each set-up stage. */
  private val SetupSweeps = 4
  /** Passes every run measures at least; the per-call percentiles use
    * exactly these.
    */
  private val Passes = 4

  def main(argv: Array[String]): Unit = {
    val launched = System.currentTimeMillis().toDouble
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val a = Args(kv("workload"), kv("seed").toLong, kv("seconds").toDouble, kv("trace") == "1",
      new File(kv("work")), kv.get("launched-at").map(_.toDouble).getOrElse(launched))
    val r = new Report
    r.info(s"workload ${a.workload} seed ${a.seed} seconds ${a.seconds} trace ${if (a.trace) 1 else 0}")
    a.workload match {
      case "spark-e3" => run(a, r, eps = 1e-3)
      case "spark-e5" => run(a, r, eps = 1e-5)
      case other      => throw new IllegalArgumentException(s"unknown workload $other")
    }
    r.print()
  }

  /** Runs the traced replay over `units` and keeps its spans next to the
    * run's work directory.
    */
  private def traceLayers(a: Args, r: Report, units: Seq[TraceUnit]): Unit = {
    val tracer = new Tracer
    Traced.run(r, units, a.seconds, tracer)
    tracer.write(new File(a.work.getParentFile, s"traces/${a.workload}-seed${a.seed}.jsonl"))
  }

  /** The block path over all fields at bound `eps`, pass after pass. */
  private def run(a: Args, r: Report, eps: Double): Unit = {
    val setup = new Setup(a.launchedAtMs)
    val speed = new HostSpeed(Runtime.getRuntime.availableProcessors())
    try measure(a, r, eps, setup, speed) finally speed.close()
  }

  private def measure(a: Args, r: Report, eps: Double, setup: Setup, speed: HostSpeed): Unit = {
    speed.warmUp()
    speed.sample(SetupSweeps)
    val t0 = Clock.now()
    val session = setup.once(SparkPath.session(a.work))
    val sessionS = Clock.s(Clock.now() - t0)
    try {
      val path = new SparkPath(session, a.work)
      val fields = setup.repeated(SetupRepeats)(Inputs.generate(a.seed, eps, GenThreads))
      speed.sample(SetupSweeps)
      val t1 = Clock.now()
      val loaded = setup.once(path.load(fields))
      speed.sample(SetupSweeps)
      r.info(f"Spark session started in $sessionS%.3f s; blocks cached in ${Clock.s(Clock.now() - t1)}%.3f s")
      fields.foreach { f =>
        r.info(f"input ${f.ref}%-36s points ${f.points}%8d range ${f.range}%.6g eps $eps%.0e absEb ${f.absEb}%.6g")
      }
      val blocksPerPass = loaded.map(_.nBlocks).sum
      r.info(s"$blocksPerPass blocks of side ${BlockStore.DefaultBlockSide} per pass, local[${path.cores}]")

      if (a.trace) {
        val units = fields.flatMap { f =>
          BlockStore.shard(f.ref, f.grid).map { b =>
            TraceUnit(s"${f.ref}#${b.blockId}", new GridData(b.dims.toArray, b.values), f.absEb)
          }
        }
        traceLayers(a, r, units)
        path.pass(loaded, new Direction, new Direction, new Outcome, r)
        path.traceLayer(loaded, passes = 2, r)
        r.add("data.generate_s", setup.repeatedMedianS, "s",
          s"one realization of every dataset, median of $SetupRepeats")
        return
      }

      setup.once((1 to Warmups).foreach { i =>
        val (c, d) = (new Direction, new Direction)
        path.pass(loaded, c, d, new Outcome, r)
        r.info(f"warm-up pass $i: compress ${c.passS.head}%.3f s, decompress ${d.passS.head}%.3f s")
      })
      speed.sample(SetupSweeps)
      val setupSweeps = speed.sweepsMs.length
      val c = new Direction
      val d = new Direction
      val out = new Outcome
      val start = Clock.now()
      while (d.passes < Passes || Clock.s(Clock.now() - start) < a.seconds) {
        path.pass(loaded, c, d, out, r, () => speed.sample())
        r.info(f"pass ${d.passes}: compress ${c.passS.last}%.3f s, decompress ${d.passS.last}%.3f s")
      }
      out.compressedBytes = path.storedBytes(loaded)
      val setupScale = speed.scale(0, setupSweeps)
      val passScale = speed.scale(setupSweeps, speed.sweepsMs.length)
      r.info(f"host speed scale: set-up $setupScale%.4f over $setupSweeps sweeps, passes $passScale%.4f over " +
        s"${speed.sweepsMs.length - setupSweeps} sweeps (reference ${HostSpeed.RefSweepMs} ms per sweep)")
      EndToEnd.report(r, c, d, blocksPerPass, Passes, out, setup, setupScale, passScale)
    } finally session.stop()
  }
}
