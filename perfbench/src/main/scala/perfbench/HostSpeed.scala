package perfbench

import java.util.concurrent.atomic.AtomicInteger
import java.util.concurrent.{Callable, ExecutorService, Executors, ThreadFactory}

import scala.collection.mutable.ArrayBuffer

/** The host's current speed, read from a fixed kernel that belongs to the
  * benchmark, so that timings taken while a shared host runs fast and while
  * it runs slow can be compared.
  *
  * The kernel predicts each point of a 64³ float block from its neighbours
  * with the cubic weights (−1, 9, 9, −1)/16, quantizes the residual and
  * counts the codes in a histogram: once along the contiguous axis and once
  * along the slowest axis (stride 64²). It runs on `threads` threads that
  * take the blocks from a shared counter, as Spark tasks take a job's
  * blocks. Its inputs are fixed, so it does the same work in every run,
  * whatever the seed or the program.
  *
  * One sweep runs the kernel once over every block. On a 4-vCPU VM that
  * shares its host, the speed of a sweep changes from second to second by
  * ±15% and for minutes at a time by up to 45%. So a run sweeps between the
  * calls it times, all along, and [[scale]] takes the interquartile mean of
  * the sweeps made over a stretch of the run. The scale brings a timing made
  * during that stretch to the reference speed, at which one sweep takes
  * [[HostSpeed.RefSweepMs]]. Sweeps made in quiet moments, before set-up
  * and after the session stopped, were tried and tracked the program's
  * speed worse than sweeps made between its calls.
  */
final class HostSpeed(threads: Int) {
  import HostSpeed._

  private val blocks = Array.tabulate(Blocks) { b =>
    val rnd = new java.util.Random(b)
    Array.tabulate(Side * Side * Side) { i =>
      (math.sin(i * 1e-3 + b) + math.cos(i * 7e-5) + 1e-2 * rnd.nextGaussian()).toFloat
    }
  }
  private val pool: ExecutorService = Executors.newFixedThreadPool(threads, new ThreadFactory {
    def newThread(r: Runnable): Thread = {
      val t = new Thread(r, "perfbench-hostspeed"); t.setDaemon(true); t
    }
  })
  private val hist = Array.fill(threads)(new Array[Int](Bins))
  /** Folds every kernel result, so the JIT cannot drop the work. */
  @volatile var sink = 0L
  /** Wall time of every sweep made, in ms. */
  val sweepsMs = ArrayBuffer.empty[Double]

  /** Runs the kernel until it is compiled; records nothing. */
  def warmUp(): Unit = (1 to WarmupSweeps).foreach(_ => sweep())

  /** Makes and records `n` sweeps. */
  def sample(n: Int = SweepsPerSample): Unit = (1 to n).foreach(_ => sweepsMs += Clock.ms(sweep()))

  /** The scale to reference speed for timings made while sweeps
    * `from` until `until` were made.
    */
  def scale(from: Int, until: Int): Double = {
    val s = sweepsMs.slice(from, until).sorted
    val q = s.length / 4
    RefSweepMs / (s.slice(q, s.length - q).sum / (s.length - 2 * q))
  }

  def close(): Unit = pool.shutdownNow()

  private def sweep(): Long = {
    val next = new AtomicInteger(0)
    val t0 = Clock.now()
    val parts = (0 until threads).map { t =>
      pool.submit(new Callable[Long] {
        def call(): Long = {
          var acc = 0L
          var b = next.getAndIncrement()
          while (b < Blocks) { acc += kernel(blocks(b), hist(t)); b = next.getAndIncrement() }
          acc
        }
      })
    }
    sink += parts.map(_.get).sum
    Clock.now() - t0
  }

  private def kernel(a: Array[Float], h: Array[Int]): Long =
    axis(a, h, 1) + axis(a, h, Side * Side)

  /** Predicts, quantizes and counts every point with three neighbours on
    * each side along the axis of stride `s`.
    */
  private def axis(a: Array[Float], h: Array[Int], s: Int): Long = {
    var acc = 0L
    var i = 3 * s
    val end = a.length - 3 * s
    while (i < end) {
      val p = (9f * (a(i - s) + a(i + s)) - a(i - 3 * s) - a(i + 3 * s)) * 0.0625f
      val q = math.round((a(i) - p) * Scale)
      h(q & (Bins - 1)) += 1
      acc += q
      i += 1
    }
    acc + h(acc.toInt & (Bins - 1))
  }
}

object HostSpeed {
  val Side = 64
  val Blocks = 32
  val SweepsPerSample = 2
  val WarmupSweeps = 20
  /** Reference speed: one sweep in this many ms, about the typical speed
    * of a 4-vCPU Intel Xeon VM on a shared host.
    */
  val RefSweepMs = 30.0
  private val Bins = 1024
  private val Scale = 1e4f
}
