package perfbench

import java.io.File

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.functions.{col, length, sum}
import org.apache.spark.util.LongAccumulator

import repro.core.HPEZ
import repro.sparklayer.{Block, BlockStore, CompressorUdf}

/** Dims and point-wise check of one decompressed block, computed in its task. */
final case class BlockCheck(blockId: Long, ok: Boolean, points: Long, maxErr: Double, sse: Double)

/** The Spark block path: `compressBlocks` → `writeParquet` per field, then
  * `readParquet` → `decompressBlocks` → a bound check against the original
  * block, all through the `sparklayer` API on a local session.
  */
final class SparkPath(spark: SparkSession, workDir: File) {
  import spark.implicits._
  import SparkPath.Loaded

  private val codec = HPEZ()
  private val sc = spark.sparkContext
  val cores: Int = sc.defaultParallelism
  /** In-task time spent in the bound check, in ns. */
  val verifyNs: LongAccumulator = sc.longAccumulator("verify_ns")

  def load(fields: Seq[Field]): Seq[Loaded] = fields.map { f =>
    val blocks = BlockStore.shard(f.ref, f.grid)
    val ds = spark.createDataset(sc.parallelize(blocks, blocks.length)).cache()
    ds.count()
    val originals = sc.broadcast(blocks.map(b => b.blockId -> b).toMap)
    Loaded(f, ds, blocks.length, new File(workDir, s"parquet/${f.dataset}").getPath, originals)
  }

  /** One pass: every field compressed and written, then every field read,
    * decompressed and checked. Spark blocks are the units of the pass. An
    * exception in a field's job fails all of that field's blocks and the
    * pass goes on with the next field.
    *
    * `sampleSpeed` runs before each call and after the last, so that the
    * host's speed is sampled all through the timed calls.
    */
  def pass(loaded: Seq[Loaded], c: Direction, d: Direction, out: Outcome, r: Report,
           sampleSpeed: () => Unit = () => ()): Unit = {
    def fieldFailed(l: Loaded, e: Throwable): Unit = {
      r.attempted += l.nBlocks; r.failed += l.nBlocks
      r.info(s"${l.field.ref}: $e")
    }
    val written = loaded.filter { l =>
      sampleSpeed()
      try {
        val a0 = Clock.allocatedAllThreads(); val t0 = Clock.now()
        CompressorUdf.writeParquet(CompressorUdf.compressBlocks(l.blocks, codec, l.field.absEb), l.path)
        val ns = Clock.now() - t0
        c.call(ns, l.field.points, Clock.allocatedAllThreads() - a0)
        true
      } catch { case NonFatal(e) => fieldFailed(l, e); false }
    }
    written.foreach { l =>
      sampleSpeed()
      val eb = l.field.absEb
      val originals = l.originals
      val acc = verifyNs
      try {
        val a0 = Clock.allocatedAllThreads(); val t0 = Clock.now()
        val checks = CompressorUdf.decompressBlocks(CompressorUdf.readParquet(spark, l.path), codec)
          .map { b =>
            val v0 = System.nanoTime()
            val o = originals.value(b.blockId)
            val v = Check.values(o.values, b.values, eb)
            acc.add(System.nanoTime() - v0)
            BlockCheck(b.blockId, v.ok && b.dims == o.dims, v.points, v.maxErr, v.sse)
          }.collect()
        val ns = Clock.now() - t0
        d.call(ns, l.field.points, Clock.allocatedAllThreads() - a0)
        val good = checks.filter(_.ok).map(_.blockId).toSet
        r.attempted += l.nBlocks
        r.failed += (0 until l.nBlocks).count(i => !good.contains(i.toLong))
        out.psnr(Check.psnr(l.field.range, checks.map(_.sse).sum, l.field.points))
      } catch { case NonFatal(e) => fieldFailed(l, e) }
    }
    sampleSpeed()
    val points = loaded.map(_.field.points).sum
    c.endPass(points)
    d.endPass(points)
    out.rawBytesPerPass = points * 4
  }

  /** Compressed bytes stored by the last pass, read back from Parquet. */
  def storedBytes(loaded: Seq[Loaded]): Long =
    spark.read.parquet(loaded.map(_.path): _*).agg(sum(length(col("bytes")))).as[Long].head()

  /** Bytes of Parquet data files written by the last pass. */
  def parquetBytes(loaded: Seq[Loaded]): Long = loaded.map { l =>
    new File(l.path).listFiles().filter(_.getName.endsWith(".parquet")).map(_.length).sum
  }.sum

  /** Traced Spark passes: per-task run time from a listener registered
    * here, from outside the program.
    */
  def traceLayer(loaded: Seq[Loaded], passes: Int, r: Report): Unit = {
    val listener = new TaskListener
    sc.addSparkListener(listener)
    val compressS, readS, verifyS, tasks, busy, skew, bytes = ArrayBuffer.empty[Double]
    try (1 to passes).foreach { p =>
      val group = s"perfbench-trace-$p"
      sc.setJobGroup(group, group, interruptOnCancel = false)
      val c = new Direction; val d = new Direction
      verifyNs.reset()
      pass(loaded, c, d, new Outcome, r)
      sc.clearJobGroup()
      val jobs = sc.statusTracker.getJobIdsForGroup(group).toSet
      val runMs = listener.awaitJobs(jobs)
      compressS += c.passS.head; readS += d.passS.head
      verifyS += verifyNs.value / 1e9
      tasks += runMs.map(_.length).sum
      busy += runMs.flatten.sum / 1e3 / ((c.passS.head + d.passS.head) * cores)
      skew += Stats.median(runMs.filter(_.nonEmpty).map(ms => ms.max / math.max(1.0, Stats.median(ms))))
      bytes += parquetBytes(loaded).toDouble
    } finally sc.removeSparkListener(listener)
    val n = s"median of $passes traced Spark passes"
    r.add("sparklayer.compress_s", Stats.median(compressS.toSeq), "s", n)
    r.add("sparklayer.read_s", Stats.median(readS.toSeq), "s", s"read + decompress + check, $n")
    r.add("sparklayer.verify_s", Stats.median(verifyS.toSeq), "s", s"task time in the bound check, $n")
    r.add("sparklayer.tasks", Stats.median(tasks.toSeq), "count", "per pass")
    r.add("sparklayer.task_busy_frac", Stats.median(busy.toSeq), "ratio", s"sum of task run time over wall x $cores cores")
    r.add("sparklayer.task_skew", Stats.median(skew.toSeq), "ratio", "max over median task time, median over jobs")
    r.add("sparklayer.parquet_bytes", Stats.median(bytes.toSeq), "B", "per pass")
  }
}

/** Collects each finished task's executor run time, grouped by job. */
final class TaskListener extends SparkListener {
  private val stageJob = scala.collection.mutable.Map.empty[Int, Int]
  private val runMs = scala.collection.mutable.Map.empty[Int, ArrayBuffer[Double]]
  private val ended = scala.collection.mutable.Set.empty[Int]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    e.stageIds.foreach(s => stageJob(s) = e.jobId)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    if (e.taskMetrics != null) stageJob.get(e.stageId).foreach { j =>
      runMs.getOrElseUpdate(j, ArrayBuffer.empty) += e.taskMetrics.executorRunTime.toDouble
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { ended += e.jobId }

  /** Waits until the listener bus has delivered the end of every job in
    * `jobs`; returns the task run times (ms) of each.
    */
  def awaitJobs(jobs: Set[Int]): Seq[Seq[Double]] = {
    val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
    while (synchronized(!jobs.subsetOf(ended)) && System.nanoTime() < deadline) Thread.sleep(5)
    synchronized(jobs.toSeq.sorted.map(j => runMs.getOrElse(j, ArrayBuffer.empty).toSeq))
  }
}

object SparkPath {

  /** A field's blocks, cached one per partition, with the original blocks
    * broadcast for the check and the Parquet directory they go to.
    */
  final case class Loaded(field: Field, blocks: Dataset[Block], nBlocks: Int, path: String,
                          originals: Broadcast[Map[Long, Block]])

  def session(workDir: File): SparkSession = {
    val cores = Runtime.getRuntime.availableProcessors()
    SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.ui.showConsoleProgress", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(workDir, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(workDir, "warehouse").getAbsolutePath)
      .getOrCreate()
  }
}
