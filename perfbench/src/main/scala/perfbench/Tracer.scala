package perfbench

import java.io.{File, PrintWriter}

import scala.collection.mutable.ArrayBuffer

/** In-memory spans recorded by the benchmark around its calls into each
  * layer. A span names its layer, the pass and the unit (field or block) it
  * served, and the span that caused it; spans of one unit's compress or
  * decompress share that root.
  */
final class Tracer {
  import Tracer.Span

  val spans = ArrayBuffer.empty[Span]
  private var parent = -1
  var pass = 0
  var unit = 0

  /** Times `body` as a span named `name`, with the calling thread's
    * allocation, nested under the enclosing span.
    */
  def span[T](name: String)(body: => T): T = {
    val id = spans.length
    spans += null // reserve the id so children see their parent first
    val outer = parent
    parent = id
    val a0 = Clock.allocated()
    val t0 = Clock.now()
    try body
    finally {
      val t1 = Clock.now()
      spans(id) = Span(id, outer, pass, unit, name, t0, t1, Clock.allocated() - a0)
      parent = outer
    }
  }

  /** Per-pass sum of a named span's durations (ns) or allocations. */
  def perPass(name: String, f: Span => Long): Map[Int, Long] =
    spans.iterator.filter(s => s != null && s.name == name).toSeq
      .groupMapReduce(_.pass)(f)(_ + _)

  /** Writes the spans as JSON lines. */
  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val out = new PrintWriter(file, "UTF-8")
    try spans.foreach { s =>
      out.println(s"""{"id": ${s.id}, "parent": ${s.parent}, "pass": ${s.pass}, "unit": ${s.unit}, """ +
        s""""name": "${s.name}", "start_ns": ${s.startNs}, "end_ns": ${s.endNs}, "alloc_B": ${s.allocB}}""")
    } finally out.close()
  }
}

object Tracer {
  final case class Span(id: Int, parent: Int, pass: Int, unit: Int, name: String,
                        startNs: Long, endNs: Long, allocB: Long) {
    def ns: Long = endNs - startNs
  }
}
