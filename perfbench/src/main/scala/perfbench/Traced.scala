package perfbench

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

import repro.core.{GridData, HPEZ}

/** A unit of work in the traced run: a whole field, or one Spark block. */
final case class TraceUnit(label: String, grid: GridData, absEb: Double)

/** The traced run: alternates an untraced pass through `Compressor` with a
  * replay pass through the layers (see [[Replay]]), and reports the
  * per-layer metrics from the replay's spans.
  */
object Traced {

  def run(r: Report, units: Seq[TraceUnit], seconds: Double, tracer: Tracer): Unit = {
    val codec = HPEZ()
    val plainNs = ArrayBuffer.empty[Long] // untraced compress + decompress wall per pass
    val facts = ArrayBuffer.empty[Seq[StreamFacts]]
    val points = units.map(_.grid.size.toLong).sum

    def plainAndReplay(pass: Int, record: Boolean): Unit = {
      var wall = 0L
      val passFacts = ArrayBuffer.empty[StreamFacts]
      tracer.pass = pass
      units.zipWithIndex.foreach { case (u, i) =>
        tracer.unit = i
        r.attempted += 1
        try {
          val t0 = Clock.now()
          val bytes = codec.compress(u.grid, u.absEb)
          val back = codec.decompress(bytes)
          wall += Clock.now() - t0
          if (!Check(u.grid, back, u.absEb).ok) r.failed += 1
          val (again, f) = Replay.compress(tracer, u.grid, u.absEb)
          val backAgain = Replay.decompress(tracer, again)
          if (!java.util.Arrays.equals(backAgain.dims, back.dims) ||
            !java.util.Arrays.equals(backAgain.data, back.data)) {
            r.consistent = false
            r.info(s"replay reconstructs a different grid than the program on ${u.label}")
          }
          // Facts about the stream layout, not a correctness gate: the
          // replay writes the layout the benchmark knows.
          if (!java.util.Arrays.equals(again, bytes) && pass == 0)
            r.info(s"replayed stream differs from the program's bytes on ${u.label}")
          if (!Replay.attributeTuning(tracer, u.grid, u.absEb, f.tuned) && pass == 0)
            r.info(s"block-wise tuning replay differs from the tuner's plan on ${u.label}")
          if (!Replay.probeLorenzo(tracer, u.grid, u.absEb)) {
            r.consistent = false
            r.info(s"Lorenzo probe broke the bound on ${u.label}")
          }
          passFacts += f
        } catch {
          case NonFatal(e) => r.failed += 1; r.info(s"${u.label}: $e")
        }
      }
      if (record) { plainNs += wall; facts += passFacts.toSeq }
    }

    plainAndReplay(0, record = false) // warm-up; its spans are dropped below
    tracer.spans.clear()
    val t0 = Clock.now()
    var pass = 1
    while (pass <= 2 || Clock.s(Clock.now() - t0) < seconds) {
      plainAndReplay(pass, record = true)
      pass += 1
    }
    val passes = 1 until pass

    def perPassMs(name: String): Seq[Double] = {
      val m = tracer.perPass(name, _.ns)
      passes.map(p => Clock.ms(m.getOrElse(p, 0L)))
    }
    def ms(name: String): Double = Stats.median(perPassMs(name))
    def alloc(names: String*): Double =
      Stats.median(passes.map(p => names.map(n => tracer.perPass(n, _.allocB).getOrElse(p, 0L)).sum.toDouble))
    val f = facts.head // stream facts are the same on every pass
    def sum(g: StreamFacts => Long): Long = f.map(g).sum
    val interpPts = f.filterNot(_.useLorenzo).map(_.points).sum
    val n = s"median of ${passes.length} passes"

    val tune = ms("tuning.tune")
    val onPath = Seq("tuning.tune", "interp.compress", "lorenzo.compress", "huffman.encode",
      "lossless.compress", "interp.decompress", "lorenzo.decompress", "huffman.decode",
      "lossless.decompress", "stream.framing")
    val roots = passes.map(p => Seq("compress", "decompress").map(tracer.perPass(_, _.ns).getOrElse(p, 0L)).sum)
    val layers = passes.map(p => onPath.map(tracer.perPass(_, _.ns).getOrElse(p, 0L)).sum)
    val plain = plainNs.toSeq
    r.add("tuning.tune_ms", tune, "ms", n)
    r.add("tuning.share", Stats.median(passes.map(p =>
      tracer.perPass("tuning.tune", _.ns).getOrElse(p, 0L).toDouble / tracer.perPass("compress", _.ns)(p))), "ratio",
      "of replayed compress")
    val sampling = ms("tuning.sampling")
    val lorenzoTrial = ms("tuning.lorenzo_trial")
    val blockwise = ms("tuning.blockwise")
    r.add("tuning.sampling_ms", sampling, "ms", n)
    r.add("tuning.lorenzo_trial_ms", lorenzoTrial, "ms", n)
    r.add("tuning.blockwise_ms", blockwise, "ms", n)
    r.add("tuning.search_ms", tune - sampling - lorenzoTrial - blockwise, "ms", "derived: tune minus its timed stages")
    r.add("tuning.alloc_B_per_pt", alloc("tuning.tune") / points, "B/pt", n)
    r.add("tuning.est_over_actual_bits", f.map(_.tuned.estBits).sum / (8.0 * sum(_.huffmanBytes)), "ratio",
      "estimated bits over Huffman payload bits")
    r.add("tuning.lorenzo_fields", f.count(_.useLorenzo).toDouble, "count", s"of ${units.length} units")
    r.add("tuning.multidim_levels", f.map(_.multiDimLevels).sum.toDouble, "count")
    r.add("tuning.frozen_fields", f.count(_.frozen).toDouble, "count")
    r.add("tuning.blockwise_override_frac", sum(_.overriddenBlocks).toDouble / math.max(1L, sum(_.tuneBlocks)),
      "ratio", s"of ${sum(_.tuneBlocks)} tuning blocks")
    val ic = ms("interp.compress")
    val id = ms("interp.decompress")
    r.add("interp.compress_ms", ic, "ms", n)
    r.add("interp.decompress_ms", id, "ms", n)
    r.add("interp.ns_per_pt", (ic + id) * 1e6 / math.max(1L, interpPts), "ns/pt",
      "compress + decompress traversal per point")
    r.add("interp.alloc_B_per_pt", alloc("interp.compress", "interp.decompress") / math.max(1L, interpPts),
      "B/pt", n)
    r.add("lorenzo.compress_ms", ms("lorenzo.probe_compress"), "ms", s"order-1 probe on every unit, $n")
    r.add("lorenzo.decompress_ms", ms("lorenzo.probe_decompress"), "ms", s"order-1 probe on every unit, $n")
    r.add("huffman.encode_ms", ms("huffman.encode"), "ms", n)
    r.add("huffman.decode_ms", ms("huffman.decode"), "ms", n)
    r.add("huffman.symbols", sum(_.symbols).toDouble, "count")
    r.add("huffman.bits_per_symbol", 8.0 * sum(_.huffmanBytes) / sum(_.symbols), "bit")
    r.add("lossless.compress_ms", ms("lossless.compress"), "ms", n)
    r.add("lossless.decompress_ms", ms("lossless.decompress"), "ms", n)
    r.add("lossless.in_bytes", sum(_.inBytes).toDouble, "B")
    r.add("lossless.out_bytes", sum(_.outBytes).toDouble, "B")
    r.add("stream.framing_ms", ms("stream.framing"), "ms", n)
    r.add("stream.plan_bytes", sum(_.planBytes).toDouble, "B")
    r.add("stream.outliers", sum(_.outliers).toDouble, "count")
    r.add("stream.anchors", sum(_.anchors).toDouble, "count")
    r.add("stream.side_bytes", (sum(_.inBytes) - sum(_.huffmanBytes)).toDouble, "B",
      "stream bytes before Zstd other than the Huffman payload")
    r.add("trace.coverage", Stats.median(passes.indices.map(i => layers(i).toDouble / plain(i))), "ratio",
      "layer spans over untraced compress + decompress wall")
    r.add("trace.overhead", Stats.median(passes.indices.map(i => roots(i).toDouble / plain(i))), "ratio",
      "replayed over untraced compress + decompress wall")
  }
}
