package perfbench

import repro.core.{ByteReader, ByteWriter, GridData, Huffman, Lossless}
import repro.core.interp.{InterpPlan, LevelInterp, Paradigm}
import repro.core.lorenzo.Lorenzo
import repro.core.tuning.{AutoTuner, Sampling}

/** What one unit's compressed stream is made of. */
final case class StreamFacts(points: Long, useLorenzo: Boolean, estBits: Double,
                             huffmanBytes: Long, symbols: Long, planBytes: Long,
                             outliers: Long, anchors: Long, inBytes: Long, outBytes: Long,
                             multiDimLevels: Int, frozen: Boolean,
                             tuneBlocks: Long, overriddenBlocks: Long,
                             tuned: AutoTuner.Result)

/** Replays HPEZ's compress and decompress through the public call of each
  * layer, in the order `TunedInterpCompressor` makes them, with a span
  * around every call. The output must equal the untraced program's, byte
  * for byte and point for point; `Traced` checks that.
  */
object Replay {
  private val features = AutoTuner.Features.hpez
  private val target = AutoTuner.Target.CR

  def compress(t: Tracer, grid: GridData, absEb: Double): (Array[Byte], StreamFacts) = {
    var facts: StreamFacts = null
    val out = t.span("compress") {
      val tuned = t.span("tuning.tune")(AutoTuner.tune(grid, absEb, features, target))
      val w = new ByteWriter()
      t.span("stream.framing")(w.writeDouble(absEb))
      var planBytes = 0L
      var codes: Array[Int] = null
      var outliers: Array[Double] = null
      var anchors = 0L
      var huff: Array[Byte] = null
      if (tuned.useLorenzo) {
        t.span("stream.framing") {
          w.writeByte(1)
          w.writeVarInt(grid.ndim.toLong)
          grid.dims.foreach(d => w.writeVarInt(d.toLong))
          w.writeByte(tuned.lorenzoOrder)
        }
        val (c, o) = t.span("lorenzo.compress") {
          Lorenzo.compressWith(grid.copyGrid, absEb, tuned.lorenzoOrder)
        }
        codes = c; outliers = o
        huff = t.span("huffman.encode")(Huffman.encode(codes))
        t.span("stream.framing") {
          w.writeBlob(huff)
          w.writeFloatArray(outliers.map(_.toFloat))
        }
      } else {
        t.span("stream.framing") {
          w.writeByte(0)
          val before = w.size
          InterpPlan.serialize(w, tuned.plan)
          planBytes = w.size - before
        }
        val res = t.span("interp.compress")(LevelInterp.compressWith(grid.copyGrid, tuned.plan))
        codes = res.codes; outliers = res.outliers; anchors = res.anchors.length
        huff = t.span("huffman.encode")(Huffman.encode(codes))
        t.span("stream.framing") {
          w.writeBlob(huff)
          w.writeFloatArray(res.outliers.map(_.toFloat))
          w.writeFloatArray(res.anchors.map(_.toFloat))
        }
      }
      val raw = t.span("stream.framing")(w.toBytes)
      val bytes = t.span("lossless.compress")(Lossless.compress(raw))
      val plan = tuned.plan
      val (tuneBlocks, overridden) =
        if (tuned.useLorenzo) (0L, 0L)
        else {
          val global = plan.levelConfigs.head.spline.id.toByte
          (grid.dims.map(d => ((d + 31) / 32).toLong).product,
            plan.blockSplines.count(_ != global).toLong)
        }
      facts = StreamFacts(grid.size.toLong, tuned.useLorenzo, tuned.estBits, huff.length.toLong,
        codes.length.toLong, planBytes, outliers.length.toLong, anchors, raw.length.toLong,
        bytes.length.toLong,
        if (tuned.useLorenzo) 0 else plan.levelConfigs.count(_.paradigm == Paradigm.MultiDim),
        !tuned.useLorenzo && plan.frozenDim >= 0, tuneBlocks, overridden, tuned)
      bytes
    }
    (out, facts)
  }

  /** Times the tuner's stages by calling each again on the same input,
    * outside the compress path. Returns false when the block-wise stage
    * does not reproduce the plan the tuner chose.
    */
  def attributeTuning(t: Tracer, grid: GridData, absEb: Double,
                      tuned: AutoTuner.Result): Boolean = t.span("attribution") {
    val blocks = t.span("tuning.sampling") {
      Sampling.dimStats(grid)
      Sampling.sampleBlocks(grid)
    }
    t.span("tuning.lorenzo_trial")(blocks.foreach(b => Lorenzo.trial(b, absEb)))
    if (tuned.useLorenzo) true
    else {
      val global = tuned.plan.copy(blockSize = 0, blockSplines = Array.emptyByteArray)
      val again = t.span("tuning.blockwise")(AutoTuner.blockwiseTune(grid, global, absEb, features))
      again.blockSize == tuned.plan.blockSize &&
        java.util.Arrays.equals(again.blockSplines, tuned.plan.blockSplines)
    }
  }

  /** Runs the first-order Lorenzo predictor over the unit whether or not
    * the tuner chose it, so the layer's speed is measured on every
    * workload. Returns whether the round trip kept the bound.
    */
  def probeLorenzo(t: Tracer, grid: GridData, absEb: Double): Boolean = t.span("attribution") {
    val (codes, outliers) = t.span("lorenzo.probe_compress")(Lorenzo.compressWith(grid.copyGrid, absEb, 1))
    val back = t.span("lorenzo.probe_decompress")(Lorenzo.decompressWith(grid.dims, absEb, 1, codes, outliers))
    Check(grid, back, absEb).ok
  }

  def decompress(t: Tracer, bytes: Array[Byte]): GridData = t.span("decompress") {
    val raw = t.span("lossless.decompress")(Lossless.decompress(bytes))
    val r = new ByteReader(raw)
    val (absEb, tag) = t.span("stream.framing")((r.readDouble(), r.readByte()))
    tag match {
      case 1 =>
        val (dims, order, blob) = t.span("stream.framing") {
          val nd = r.readVarInt().toInt
          val dims = Array.fill(nd)(r.readVarInt().toInt)
          (dims, r.readByte(), r.readBlob())
        }
        val codes = t.span("huffman.decode")(Huffman.decode(blob))
        val outliers = t.span("stream.framing")(r.readFloatArray().map(_.toDouble))
        t.span("lorenzo.decompress")(Lorenzo.decompressWith(dims, absEb, order, codes, outliers))
      case 0 =>
        val (plan, blob) = t.span("stream.framing")((InterpPlan.deserialize(r), r.readBlob()))
        val codes = t.span("huffman.decode")(Huffman.decode(blob))
        val (outliers, anchors) = t.span("stream.framing") {
          (r.readFloatArray().map(_.toDouble), r.readFloatArray().map(_.toDouble))
        }
        t.span("interp.decompress")(LevelInterp.decompressWith(plan, codes, outliers, anchors))
      case other => throw new IllegalArgumentException(s"bad predictor tag $other")
    }
  }
}
