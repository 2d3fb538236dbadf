package perfbench

import java.util.concurrent.Executors
import scala.concurrent.duration.Duration
import scala.concurrent.{Await, ExecutionContext, Future}

import repro.core.{Compressor, GridData}
import repro.data.SciData
import repro.data.SciData.FieldRef

/** One seeded input field and the absolute bound derived from its range. */
final case class Field(ref: FieldRef, grid: GridData, range: Double, absEb: Double) {
  def points: Long = grid.size.toLong
  def dataset: String = ref.dataset
}

/** Seeded synthetic inputs: one field per float dataset at benchmark dims.
  *
  * The field name is "seed<N>". `SciData` hashes the name into its
  * generator seed, so each seed is a new realization with the character of
  * its dataset, and the program only ever sees the resulting grids.
  */
object Inputs {

  def refs(seed: Long): Seq[FieldRef] = SciData.floatDatasets.map { ds =>
    FieldRef(ds, s"seed$seed", SciData.fields(ds).head.dims, isInteger = false)
  }

  /** Generates the fields on `threads` threads; order follows `refs`. */
  def generate(seed: Long, eps: Double, threads: Int): Seq[Field] = {
    val pool = Executors.newFixedThreadPool(threads)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutorService(pool)
    try {
      val jobs = refs(seed).map { ref =>
        Future {
          val g = SciData.generate(ref)
          Field(ref, g, g.valueRange, Compressor.absoluteBound(g, eps))
        }
      }
      Await.result(Future.sequence(jobs), Duration.Inf)
    } finally pool.shutdown()
  }
}
