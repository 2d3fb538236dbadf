package repro.core

import scala.collection.mutable

/** Canonical Huffman codec over non-negative Int symbols.
  *
  * This is Step 4 of the HPEZ pipeline (Fig. 1): quantized prediction
  * errors are entropy-coded; "a more concentrated distribution of
  * quantization errors will lower the encoded tree size".
  *
  * The serialized form stores only (symbol, code length) pairs; canonical
  * code assignment makes encode/decode agree without storing the tree.
  */
object Huffman {

  /** Encodes `symbols` into a self-describing byte blob. */
  def encode(symbols: Array[Int]): Array[Byte] = {
    val w = new ByteWriter()
    w.writeVarInt(symbols.length.toLong)
    if (symbols.isEmpty) return w.toBytes

    // Frequency table — dense array fast path for bounded alphabets
    // (quantizer codes are 0..2·radius), LongMap fallback otherwise. The
    // dense arrays span only the [minSym, maxSym] window: quantizer codes
    // cluster around the radius, far from 0.
    var minSym = Int.MaxValue
    var maxSym = 0
    var i = 0
    while (i < symbols.length) {
      val sym = symbols(i)
      require(sym >= 0, s"negative symbol $sym")
      if (sym > maxSym) maxSym = sym
      if (sym < minSym) minSym = sym
      i += 1
    }
    val dense = maxSym < (1 << 21)
    val freq = mutable.LongMap.empty[Long]
    if (dense) {
      val counts = new Array[Long](maxSym - minSym + 1)
      i = 0
      while (i < symbols.length) { counts(symbols(i) - minSym) += 1; i += 1 }
      // Ascending symbol order: the map's iteration order, and with it the
      // code lengths, depends on the insertion order.
      i = 0
      while (i < counts.length) { if (counts(i) > 0) freq.update((i + minSym).toLong, counts(i)); i += 1 }
    } else {
      i = 0
      while (i < symbols.length) {
        val k = symbols(i).toLong
        freq.update(k, freq.getOrElse(k, 0L) + 1L)
        i += 1
      }
    }

    val lengths = codeLengths(freq)
    val syms = lengths.keys.toArray.sorted
    // Table: count, then (symbol varint, length byte) in symbol order.
    w.writeVarInt(syms.length.toLong)
    syms.foreach { s => w.writeVarInt(s); w.writeByte(lengths(s)) }

    val codes = canonicalCodes(syms.map(s => (s, lengths(s))))
    // Bit-reversed code table for fast emission: BitWriter is LSB-first,
    // so writing the reversed code emits the canonical code MSB-first.
    // Dense arrays over the symbol window when the alphabet is bounded.
    val revArr = if (dense) new Array[Long](maxSym - minSym + 1) else null
    val lenArr = if (dense) new Array[Int](maxSym - minSym + 1) else null
    val revCodes = if (dense) null else new mutable.LongMap[(Long, Int)](codes.size * 2)
    codes.foreach { case (sym, (code, len)) =>
      var rev = 0L
      var b = 0
      while (b < len) { rev = (rev << 1) | ((code >>> b) & 1L); b += 1 }
      if (dense) { revArr(sym.toInt - minSym) = rev; lenArr(sym.toInt - minSym) = len }
      else revCodes.update(sym, (rev, len))
    }
    val bw = new BitWriter(math.max(1024, symbols.length / 2))
    i = 0
    while (i < symbols.length) {
      var rev = 0L
      var len = 0
      if (dense) { val sIdx = symbols(i) - minSym; rev = revArr(sIdx); len = lenArr(sIdx) }
      else { val p = revCodes(symbols(i).toLong); rev = p._1; len = p._2 }
      if (len <= 57) bw.writeBits(rev, len)
      else {
        // pathological depths: emit MSB-first bit by bit from the reversed code
        var b = 0
        while (b < len) { bw.writeBit(((rev >>> b) & 1L).toInt); b += 1 }
      }
      i += 1
    }
    w.writeBlob(bw.toBytes)
    w.toBytes
  }

  /** Decodes a blob produced by [[encode]]. */
  def decode(bytes: Array[Byte]): Array[Int] = {
    val r = new ByteReader(bytes)
    val n = r.readVarInt().toInt
    if (n == 0) return Array.emptyIntArray
    val tableSize = r.readVarInt().toInt
    val entries = Array.fill(tableSize) { val s = r.readVarInt(); val len = r.readByte(); (s, len) }
    val payload = r.readBlob()

    if (tableSize == 1) return Array.fill(n)(entries(0)._1.toInt)

    // Canonical decode: group symbols by code length, then walk bits
    // accumulating the numeric code and matching against per-length ranges.
    val byLen = entries.groupBy(_._2)
    val maxLen = entries.map(_._2).max
    val firstCode = new Array[Long](maxLen + 2)
    val symAt = new Array[Array[Long]](maxLen + 1)
    var code = 0L
    var len = 1
    while (len <= maxLen) {
      firstCode(len) = code
      val group = byLen.getOrElse(len, Array.empty).map(_._1).sorted
      symAt(len) = group
      code = (code + group.length) << 1
      len += 1
    }
    val br = new BitReader(payload)
    val out = new Array[Int](n)
    var i = 0
    while (i < n) {
      var acc = 0L
      var l = 0
      var sym = -1L
      while (sym < 0) {
        acc = (acc << 1) | br.readBit()
        l += 1
        require(l <= maxLen, "corrupt huffman stream")
        val group = symAt(l)
        if (group != null && group.nonEmpty && acc - firstCode(l) < group.length && acc >= firstCode(l))
          sym = group((acc - firstCode(l)).toInt)
      }
      out(i) = sym.toInt
      i += 1
    }
    out
  }

  /** Shannon entropy in bits/symbol of a symbol stream — used by the
    * auto-tuner to estimate encoded size without running full Huffman.
    */
  def entropyBits(symbols: Array[Int]): Double = {
    if (symbols.isEmpty) return 0.0
    var maxSym = 0
    var i = 0
    while (i < symbols.length) { if (symbols(i) > maxSym) maxSym = symbols(i); i += 1 }
    val n = symbols.length.toDouble
    var h = 0.0
    if (maxSym < (1 << 21)) {
      val counts = new Array[Long](maxSym + 1)
      i = 0
      while (i < symbols.length) { counts(symbols(i)) += 1; i += 1 }
      i = 0
      while (i <= maxSym) {
        if (counts(i) > 0) { val p = counts(i) / n; h -= p * math.log(p) / math.log(2) }
        i += 1
      }
    } else {
      val freq = mutable.LongMap.empty[Long]
      symbols.foreach { s => freq.update(s.toLong, freq.getOrElse(s.toLong, 0L) + 1L) }
      freq.values.foreach { c => val p = c / n; h -= p * math.log(p) / math.log(2) }
    }
    h
  }

  /** Huffman code lengths via the standard two-queue/heap construction. */
  private def codeLengths(freq: mutable.LongMap[Long]): mutable.LongMap[Int] = {
    val lengths = mutable.LongMap.empty[Int]
    if (freq.size == 1) { lengths.update(freq.keys.head, 1); return lengths }

    // Heap of (weight, node). Leaves carry the symbol; internal nodes carry
    // children indices into `nodes`.
    final case class Node(sym: Long, left: Int, right: Int)
    val nodes = mutable.ArrayBuffer.empty[Node]
    val pq = mutable.PriorityQueue.empty[(Long, Int)](Ordering.by[(Long, Int), Long](_._1).reverse)
    freq.foreach { case (s, f) =>
      nodes += Node(s, -1, -1)
      pq.enqueue((f, nodes.length - 1))
    }
    while (pq.size > 1) {
      val (f1, n1) = pq.dequeue()
      val (f2, n2) = pq.dequeue()
      nodes += Node(-1, n1, n2)
      pq.enqueue((f1 + f2, nodes.length - 1))
    }
    val root = pq.dequeue()._2
    // Iterative DFS assigning depths.
    val stack = mutable.ArrayBuffer[(Int, Int)]((root, 0))
    while (stack.nonEmpty) {
      val (ni, depth) = stack.remove(stack.length - 1)
      val node = nodes(ni)
      if (node.left < 0) lengths.update(node.sym, math.max(1, depth))
      else {
        stack += ((node.left, depth + 1))
        stack += ((node.right, depth + 1))
      }
    }
    lengths
  }

  /** Canonical (code, length) per symbol given (symbol, length) sorted by symbol. */
  private def canonicalCodes(entries: Array[(Long, Int)]): mutable.LongMap[(Long, Int)] = {
    // Sort by (length, symbol); assign increasing codes.
    val sorted = entries.sortBy { case (s, l) => (l, s) }
    val out = mutable.LongMap.empty[(Long, Int)]
    var code = 0L
    var prevLen = 0
    sorted.foreach { case (s, l) =>
      if (prevLen != 0) code = (code + 1) << (l - prevLen)
      else code = 0L
      out.update(s, (code, l))
      prevLen = l
    }
    out
  }
}
