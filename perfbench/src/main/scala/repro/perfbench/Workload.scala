package repro.perfbench

import repro.core.{AuxTable, DeepMapping, DmSnapshot}
import repro.nn.{Mat, MultiTaskNet, Trainer}
import repro.store.{BufferPool, KvData}

/** One workload: the base table, the pool, and what one round does.
  *
  * A round is always the same list of operations: the out-of-domain
  * batches (if any), then `lookups` batches through `DeepMapping.lookup`,
  * each also through `DmSnapshot.lookupBatch`, on the built structure;
  * then `WritesPerRound` write phases. A write phase is timed inserts (one
  * chunk that follows the base's distribution, one that does not), one
  * update, one delete and a repack, and ends by undoing them through the
  * same API (delete the inserted rows, re-insert the deleted base rows,
  * update the changed base rows back, repack), so every round starts from
  * the built state. These closing calls are checked and counted, not
  * timed.
  */
final case class Workload(
    name: String,
    lowCorrelation: Boolean,
    /** Pool budget as a share of the base table's raw bytes; 0 keeps the
      * default 64 MB pool, which holds the whole structure. */
    poolShare: Double,
    lookups: Int,
    outOfDomain: Boolean,
    insertRows: Int,
    updateRows: Int,
    deleteRows: Int,
)

object Workload {
  val all: Seq[Workload] = Seq(
    Workload("lookup-high", lowCorrelation = false, poolShare = 0, lookups = 3, outOfDomain = true,
      insertRows = 10_000, updateRows = 10_000, deleteRows = 40_000),
    Workload("lookup-low", lowCorrelation = true, poolShare = 0.35, lookups = 3, outOfDomain = false,
      insertRows = 10_000, updateRows = 30_000, deleteRows = 200),
  )

  def byName(n: String): Option[Workload] = all.find(_.name == n)
}

/** Result of one run. `unexpected` counts failed operations other than
  * the out-of-domain batches; `setupOk` covers the checks made before the
  * timed rounds (build properties and the warm-up round). */
final case class RunResult(
    attempted: Long,
    failed: Long,
    unexpected: Long,
    setupOk: Boolean,
    keysChecked: Long,
    propertyChecks: Long,
    rounds: Int,
    endToEnd: Seq[(String, Double, String)],
    perLayer: Seq[(String, Double, String)],
    /** Every end-to-end sample, for explaining an outlier run. */
    samples: Map[String, Seq[Double]],
)

/** Runs one workload for `seconds` of whole rounds, driving the program
  * only through its public API, one client in a closed loop. */
final class Runner(w: Workload, seed: Long, seconds: Int, val trace: Trace) {
  import Runner._

  private val rng = new java.util.Random(seed)
  private val base: KvData = Inputs.base(w.lowCorrelation)
  private val truth = new Truth(Inputs.nCols)
  truth.putAll(base)
  private val cfg = Inputs.config(base, w.poolShare)
  private var samples = new Samples
  private var layers = new Samples

  /** Builds run on a pool with one worker per processor, where the
    * program's parallel loops fan out: single-threaded builds would take
    * most of a run. Everything else runs on the client thread. Both are
    * charged with the CPU time of every thread (see [[Trace]]). */
  private val buildPool = new java.util.concurrent.ForkJoinPool(Runtime.getRuntime.availableProcessors)
  private def onBuildPool[T](body: => T): T =
    buildPool.submit(new java.util.concurrent.Callable[T] { def call(): T = body }).get()

  private var dm: DeepMapping = _
  private var snap: DmSnapshot = _
  private var nextKey = Inputs.Rows + 1L

  private var attempted = 0L
  private var failed = 0L
  private var unexpected = 0L
  private var setupOk = true
  private var keysChecked = 0L
  private var propertyChecks = 0L

  private def scaled(fullScaleRows: Int): Int =
    math.max(1, (fullScaleRows.toLong * Inputs.Rows / Inputs.FullRows).toInt)

  /** One counted operation. It fails if it throws or a check is false. */
  private def op(name: String, expectedToFail: Boolean = false)(body: => Boolean): Unit = {
    attempted += 1
    trace.op += 1
    val ok =
      try trace.timed(name)(body)._1
      catch { case _: Exception => false }
    if (!ok) {
      failed += 1
      if (!expectedToFail) unexpected += 1
    }
  }

  // ---------------------------------------------------------------- checks

  private def checkCodes(keys: Array[Long], out: Array[Array[Int]]): Boolean = {
    keysChecked += keys.length
    if (out == null || out.length != keys.length) return false
    var i = 0
    while (i < keys.length) {
      val want = truth.get(keys(i))
      val got = out(i)
      if (if (want == null) got != null else !java.util.Arrays.equals(want, got)) return false
      i += 1
    }
    true
  }

  private def checkValues(keys: Array[Long], out: Array[Array[String]]): Boolean = {
    keysChecked += keys.length
    if (out == null || out.length != keys.length) return false
    val cols = Inputs.dicts.cols
    var i = 0
    while (i < keys.length) {
      val want = truth.get(keys(i))
      val got = out(i)
      if (want == null) { if (got != null) return false }
      else if (got == null || got.length != want.length) return false
      else {
        var c = 0
        while (c < want.length) { if (got(c) != cols(c).decode(want(c))) return false; c += 1 }
      }
      i += 1
    }
    true
  }

  private def property(ok: Boolean): Boolean = { propertyChecks += 1; ok }

  /** V_exist holds exactly as many keys as the oracle. */
  private def liveCountOk: Boolean = property(dm.exist.cardinality == truth.live)

  /** Eq. 1's parts add up to `storageBytes`, with the model and T_aux
    * counted here from what they hold rather than from the program's own
    * accounting: the model as 4 bytes a weight and a bias plus a 64-byte
    * header, T_aux (with an empty overlay, after a build or a repack) as
    * the bytes of its blocks plus 20 bytes of index a block. */
  private def breakdownOk: Boolean = property {
    val layers = dm.model.shared ++ dm.model.priv.flatten
    val modelBytes = layers.map(l => 4L * (l.w.data.length + l.b.length)).sum + 64
    val store = dm.aux.store
    val auxBytes = (0 until store.blockCount).map(id => store.read(id).length.toLong).sum + 20L * store.blockCount
    modelBytes + auxBytes + dm.exist.byteSize + dm.dicts.byteSize == dm.storageBytes
  }

  /** A repack leaves no overlay behind. */
  private def overlayEmpty: Boolean = property(dm.aux.overlaySize == 0)

  /** Right after a build T_aux holds exactly the mispredicted rows. */
  private def auxIsMispredictions: Boolean = property {
    val preds = onBuildPool(Trainer.predictAll(dm.model, base.keys, dm.enc.encode))
    val miss = base.keys.indices.filter(i => (0 until base.nCols).exists(c => preds(c)(i) != base.cols(c)(i)))
    val (auxKeys, auxCols) = dm.aux.entries()
    auxKeys.sameElements(miss.map(base.keys)) &&
      miss.indices.forall(j => (0 until base.nCols).forall(c => auxCols(c)(j) == base.cols(c)(miss(j))))
  }

  // ----------------------------------------------------------------- setup

  /** One timed `DeepMapping.build` of the base table. */
  private def build(): DeepMapping = {
    val (built, ns) = trace.timed("build")(onBuildPool(DeepMapping.build(base, Inputs.dicts, cfg)))
    samples.add("setup_s", ns / 1e9)
    built
  }

  /** Builds three times (`setup_s` is their median), keeps the last build,
    * checks it and warms it up. */
  private def setup(): Unit = {
    (1 to Builds).foreach { _ => if (dm != null) dm.close(); dm = build() }
    setupOk &&= liveCountOk && auxIsMispredictions && breakdownOk
    if (trace.enabled) traceBuild()
    warmUp()
  }

  /** One lookup batch and `WarmWrites` write phases, checked but neither
    * counted nor timed, so every path the measured rounds take has been
    * compiled before them. */
  private def warmUp(): Unit = {
    val kept = (samples, layers, attempted, failed, unexpected)
    samples = new Samples
    layers = new Samples
    lookups(1)
    (1 to WarmWrites).foreach(_ => writes())
    setupOk &&= unexpected == kept._5
    samples = kept._1; layers = kept._2; attempted = kept._3; failed = kept._4; unexpected = kept._5
  }

  /** The build's layers, called one by one on the same data, on the build
    * pool, as `setup_s` is timed. */
  private def traceBuild(): Unit = {
    val enc = dm.enc
    val net = MultiTaskNet(enc.featDim, dm.model.arch, cfg.seed)
    val (losses, fitNs) = trace.timed("nn.fit")(onBuildPool(Trainer.fit(net, base.keys, base.cols, enc.encode, cfg.train)))
    layers.add("nn.fit_s", fitNs / 1e9)
    layers.add("nn.epochs", losses.length.toDouble)
    val (preds, sweepNs) = trace.timed("nn.sweep")(onBuildPool(Trainer.predictAll(net, base.keys, enc.encode)))
    layers.add("nn.sweep_s", sweepNs / 1e9)
    val miss = base.keys.indices.filter(i => (0 until base.nCols).exists(c => preds(c)(i) != base.cols(c)(i))).toArray
    val (aux, packNs) = trace.timed("taux.pack")(onBuildPool(
      AuxTable.build(miss.map(base.keys), base.cols.map(col => miss.map(col)), cfg.codec, cfg.partitionBytes,
        new BufferPool(cfg.poolBudget))))
    layers.add("taux.pack_ms", packNs / 1e6)
    aux.close()
    // Single training steps at the build's batch size on a fresh net.
    val fresh = MultiTaskNet(enc.featDim, dm.model.arch, cfg.seed)
    val idx = Array.tabulate(base.rows)(identity)
    val bs = cfg.train.batchSize
    (1 to TrainSteps).foreach { t =>
      val from = ((t - 1) * bs) % (base.rows - bs)
      val x = Trainer.encodeBatch(base.keys, idx, from, from + bs, enc.featDim, enc.encode)
      val y = base.cols.map(col => java.util.Arrays.copyOfRange(col, from, from + bs))
      val (_, ns) = trace.timed("nn.train_step")(onBuildPool(fresh.trainBatch(x, y, cfg.train.lr, t)))
      layers.add("nn.train_step_ms", ns / 1e6)
    }
  }

  // ---------------------------------------------------------------- rounds

  /** B keys: live keys at random, and a fixed share of absent ones. */
  private def batch(): Array[Long] = {
    val span = 2L * math.max(Inputs.Rows.toLong, nextKey)
    Array.fill(Inputs.BatchKeys) {
      if (rng.nextDouble() < Inputs.AbsentShare) truth.absentKey(span, rng) else truth.randomLive(rng)
    }
  }

  /** Rows for Algorithm 3 with fresh keys, following the base's
    * distribution (Table III) or the other one (Table IV). */
  private def insertChunk(sameDistribution: Boolean): KvData = {
    val lowRows = sameDistribution == w.lowCorrelation
    val d = if (lowRows) Inputs.low(nextKey, scaled(w.insertRows), rng) else Inputs.high(nextKey, scaled(w.insertRows))
    nextKey += scaled(w.insertRows)
    d
  }

  private def poolDelta[T](body: => T): (T, Long, Long, Long, Long) = {
    val s = dm.pool.stats
    val (h0, m0, b0, n0) = (s.hits, s.misses, s.loadedBytes, s.loadNanos)
    val v = body
    (v, s.hits - h0, s.misses - m0, s.loadedBytes - b0, s.loadNanos - n0)
  }

  private def round(): Unit = {
    if (w.outOfDomain) outOfDomainBatches.foreach { keys =>
      op("lookup.out_of_domain", expectedToFail = true)(checkCodes(keys, dm.lookup(keys)))
    }
    lookups(w.lookups)
    (1 to WritesPerRound).foreach(_ => writes())
  }

  private def lookups(count: Int): Unit = {
    // Lookups on the built structure: one snapshot for the round, opened
    // (its model decoded) by an untimed call before the timed batches.
    snap = dm.snapshot()
    val first = batch()
    op("snapshot.open") { val keys = first.take(100); checkValues(keys, snap.lookupBatch(keys)) }
    lookupBatch(first)
    (1 until count).foreach(_ => lookupBatch(batch()))
  }

  /** Timed inserts, update, delete and repack, then the untimed calls that
    * undo them. */
  private def writes(): Unit = {
    nextKey = Inputs.Rows + 1L // the last write phase deleted its inserted rows

    // Algorithm 3: an in-distribution chunk, then an out-of-distribution one.
    val chunks = Seq(insertChunk(sameDistribution = true), insertChunk(sameDistribution = false))
    var insertNs = 0L
    chunks.foreach { ins =>
      if (trace.enabled)
        layers.add("modify.insert_predict_ms", trace.timed("modify.insert_predict")(predict(ins.keys))._2 / 1e6)
      op("insert") {
        val (_, ns) = trace.timed("dm.insert")(dm.insert(ins))
        insertNs += ns
        truth.putAll(ins)
        liveCountOk
      }
    }
    samples.add("insert_rows_per_s", chunks.map(_.rows).sum / (insertNs / 1e9))

    val upd = Inputs.withKeys(truth.sampleLive(scaled(w.updateRows), rng), rng)
    if (trace.enabled)
      layers.add("modify.update_predict_ms", trace.timed("modify.update_predict")(predict(upd.keys))._2 / 1e6)
    op("update") {
      val (_, ns) = trace.timed("dm.update")(dm.update(upd))
      samples.add("update_rows_per_s", upd.rows / (ns / 1e9))
      truth.putAll(upd)
      liveCountOk
    }

    val del = truth.sampleLive(scaled(w.deleteRows), rng)
    op("delete") {
      val (_, _, misses, _, loadNs) = poolDelta {
        val (_, ns) = trace.timed("dm.delete")(dm.delete(del))
        samples.add("delete_rows_per_s", del.length / (ns / 1e9))
      }
      layers.add("modify.delete_pool_misses", misses.toDouble)
      layers.add("modify.delete_load_ms", loadNs / 1e6)
      del.foreach(truth.remove)
      liveCountOk
    }

    layers.add("taux.overlay_rows", dm.aux.overlaySize.toDouble)
    op("repack") {
      val (_, ns) = trace.timed("aux.repack")(dm.aux.repack())
      samples.add("repack_ms", ns / 1e6)
      samples.add("storage_ratio", dm.storageBytes.toDouble / (truth.live.toLong * Inputs.rawRowBytes))
      overlayEmpty && breakdownOk
    }
    if (trace.enabled) traceStorage()

    val inserted = chunks.flatMap(_.keys).filter(truth.contains).toArray
    op("close.delete") { dm.delete(inserted); inserted.foreach(truth.remove); liveCountOk }
    val back = del.filter(_ <= Inputs.Rows)
    op("close.insert") { val d = baseRows(back); dm.insert(d); truth.putAll(d); liveCountOk }
    val changed = upd.keys.filter(k => k <= Inputs.Rows && truth.contains(k))
    op("close.update") { val d = baseRows(changed); dm.update(d); truth.putAll(d); liveCountOk }
    op("close.repack") { dm.aux.repack(); overlayEmpty }
  }

  private def baseRows(keys: Array[Long]): KvData =
    KvData(keys, base.cols.map(col => keys.map(k => col((k - 1).toInt))))

  private def predict(keys: Array[Long]): Array[Array[Int]] = Trainer.predictAll(dm.model, keys, dm.enc.encode)

  /** One batch through `DeepMapping.lookup`, then the same keys through
    * `DmSnapshot.lookupBatch`. */
  private def lookupBatch(keys: Array[Long]): Unit = {
    if (trace.enabled) traceLookup(keys)
    op("lookup") {
      val (out, hits, misses, bytes, loadNs) = poolDelta {
        val (out, ns) = trace.timed("dm.lookup")(dm.lookup(keys))
        samples.add("lookup_ms", ns / 1e6)
        out
      }
      layers.add("store.pool_misses", misses.toDouble)
      layers.add("store.pool_hit_ratio", if (hits + misses == 0) 1.0 else hits.toDouble / (hits + misses))
      layers.add("store.decoded_mb", bytes / 1e6)
      layers.add("store.load_ms", loadNs / 1e6)
      checkCodes(keys, out)
    }
    op("snapshot.lookup") {
      val (out, ns) = trace.timed("snapshot.lookupBatch")(snap.lookupBatch(keys))
      samples.add("snapshot_lookup_ms", ns / 1e6)
      checkValues(keys, out)
    }
  }

  /** Algorithm 1 on one batch, layer by layer, through each layer's public
    * functions: featurise, first dense layer, the other layers, argmax,
    * then the V_exist and T_aux probes in key order. */
  private def traceLookup(keys: Array[Long]): Unit = {
    val model = dm.model
    val enc = dm.enc
    var encNs, firstNs, restNs, argNs = 0L
    var from = 0
    while (from < keys.length) {
      val until = math.min(keys.length, from + PredictChunk)
      val (x, e) = trace.timed("encoder.encode") {
        val m = Mat.zeros(until - from, enc.featDim)
        var r = 0
        while (r < until - from) { enc.encode(keys(from + r), m.data, r * enc.featDim); r += 1 }
        m
      }
      val (h1, f) = trace.timed("nn.dense_first")(model.shared.headOption.fold(x)(_.forward(x)))
      val (logits, rest) = trace.timed("nn.dense_rest") {
        var h = h1
        model.shared.drop(1).foreach(l => h = l.forward(h))
        model.priv.map { stack => var t = h; stack.foreach(l => t = l.forward(t)); t }
      }
      val (_, a) = trace.timed("nn.argmax")(logits.map(Mat.argmaxRows))
      encNs += e; firstNs += f; restNs += rest; argNs += a
      from = until
    }
    layers.add("encoder.encode_ms", encNs / 1e6)
    layers.add("nn.dense_first_ms", firstNs / 1e6)
    layers.add("nn.dense_rest_ms", restNs / 1e6)
    layers.add("nn.argmax_ms", argNs / 1e6)
    layers.add("nn.predict_ms", trace.timed("nn.predict")(predict(keys))._2 / 1e6)

    val (existing, probeNs) = trace.timed("vexist.probe")(keys.filter(dm.exist.get))
    layers.add("vexist.probe_ms", probeNs / 1e6)
    layers.add("vexist.rejected_keys", (keys.length - existing.length).toDouble)
    java.util.Arrays.sort(existing)
    val (hits, auxNs) = trace.timed("taux.probe")(existing.count(k => dm.aux.get(k) != null))
    layers.add("taux.probe_ms", auxNs / 1e6)
    layers.add("taux.hit_keys", hits.toDouble)
    layers.add("nn.useful_infer_ratio", (existing.length - hits).toDouble / keys.length)
  }

  /** T_aux after a repack: its size, and one pass over its blocks through
    * `BlockStore.read` and the codec. */
  private def traceStorage(): Unit = {
    val aux = dm.aux
    layers.add("taux.rows", aux.baseRows.toDouble)
    layers.add("taux.kb", aux.byteSize / 1024.0)
    var readNs, decNs, rawBytes = 0L
    (0 until aux.store.blockCount).foreach { id =>
      val (bytes, r) = trace.timed("store.read")(aux.store.read(id))
      val (raw, d) = trace.timed("compress.decompress")(cfg.codec.decompress(bytes))
      readNs += r; decNs += d; rawBytes += raw.length
    }
    layers.add("store.read_ms", readNs / 1e6)
    if (decNs > 0) layers.add("compress.decompress_mb_per_s", rawBytes / 1e6 / (decNs / 1e9))
  }

  // ------------------------------------------------------------------- run

  def run(): RunResult = {
    trace.wall("setup")(setup())
    var rounds = 0
    var measuredNs = 0L
    while (rounds == 0 || measuredNs < seconds * 1_000_000_000L) {
      measuredNs += trace.wall("round")(round())._2
      rounds += 1
    }
    buildPool.shutdown()
    finish(rounds)
  }

  private def finish(rounds: Int): RunResult = {
    snap = null
    val finalSnap = dm.snapshot()
    val snapBytes = serializedSize(finalSnap)
    val st = dm.storage
    val perLayer =
      if (!trace.enabled) Nil
      else {
        layers.add("vexist.kb", st.existBytes / 1024.0)
        layers.add("storage.model_kb", st.modelBytes / 1024.0)
        layers.add("storage.fdecode_kb", st.decodeBytes / 1024.0)
        layers.add("store.pool_used_mb", dm.pool.usedBytes / 1e6)
        layers.add("snapshot.exist_keys", finalSnap.existingKeys.length.toDouble)
        layers.add("snapshot.taux_rows", finalSnap.auxKeys.length.toDouble)
        // A layer the workload never reached (no T_aux block, say) reads 0.
        PerLayer.map { case (name, unit) => (name, if (layers.all(name).isEmpty) 0.0 else layers.median(name), unit) }
      }
    val heapMb = retainedHeapMb()

    val lookups = samples.all("lookup_ms")
    val endToEnd = Seq(
      ("setup_s", samples.median("setup_s"), "s"),
      ("storage_ratio", samples.median("storage_ratio"), "ratio"),
      ("lookup_p50_ms", samples.median("lookup_ms"), "ms"),
      ("lookup_tail_ms", tail(lookups), "ms"),
      ("snapshot_lookup_p50_ms", samples.median("snapshot_lookup_ms"), "ms"),
      ("snapshot_mb", snapBytes / 1e6, "MB"),
      ("insert_rows_per_s", samples.median("insert_rows_per_s"), "1/s"),
      ("update_rows_per_s", samples.median("update_rows_per_s"), "1/s"),
      ("delete_rows_per_s", samples.median("delete_rows_per_s"), "1/s"),
      ("repack_ms", samples.median("repack_ms"), "ms"),
      ("heap_mb", heapMb, "MB"),
    )
    RunResult(attempted, failed, unexpected, setupOk, keysChecked, propertyChecks, rounds, endToEnd, perLayer,
      samples.toMap)
  }

  /** Heap the structure keeps alive: used heap after a full GC with it,
    * minus used heap after a full GC without it. */
  private def retainedHeapMb(): Double = {
    val withIt = usedAfterGc()
    dm.close()
    dm = null
    val without = usedAfterGc()
    (withIt - without) / 1e6
  }
}

object Runner {
  /** Rows per inference chunk, as in `Trainer.predictAll`. */
  val PredictChunk = 8192
  val TrainSteps = 10
  val Builds = 3
  val WarmWrites = 3
  /** Two write phases a round give each write metric twice the samples. */
  val WritesPerRound = 2

  val outOfDomainBatches: Array[Array[Long]] = Inputs.outOfDomainBatches

  /** The highest percentile of the samples that still has at least ten
    * samples above it. */
  def tail(xs: Seq[Double]): Double = {
    val s = xs.sorted
    s(math.max(0, s.length - 11))
  }

  def serializedSize(o: AnyRef): Long = {
    val bos = new java.io.ByteArrayOutputStream()
    val out = new java.io.ObjectOutputStream(bos)
    out.writeObject(o)
    out.close()
    bos.size().toLong
  }

  def usedAfterGc(): Long = {
    val rt = Runtime.getRuntime
    System.gc(); System.gc()
    rt.totalMemory() - rt.freeMemory()
  }

  /** Per-layer metrics with their units, in the order they are reported. */
  val PerLayer: Seq[(String, String)] = Seq(
    "nn.train_step_ms" -> "ms", "nn.fit_s" -> "s", "nn.epochs" -> "count", "nn.sweep_s" -> "s",
    "taux.pack_ms" -> "ms", "encoder.encode_ms" -> "ms", "nn.dense_first_ms" -> "ms",
    "nn.dense_rest_ms" -> "ms", "nn.argmax_ms" -> "ms", "nn.predict_ms" -> "ms",
    "nn.useful_infer_ratio" -> "ratio", "vexist.probe_ms" -> "ms", "vexist.rejected_keys" -> "count",
    "vexist.kb" -> "KB", "taux.probe_ms" -> "ms", "taux.hit_keys" -> "count",
    "store.pool_misses" -> "count", "store.pool_hit_ratio" -> "ratio", "store.decoded_mb" -> "MB",
    "store.load_ms" -> "ms", "store.read_ms" -> "ms", "compress.decompress_mb_per_s" -> "MB/s",
    "taux.rows" -> "count", "taux.kb" -> "KB", "storage.model_kb" -> "KB", "storage.fdecode_kb" -> "KB",
    "store.pool_used_mb" -> "MB", "modify.insert_predict_ms" -> "ms", "modify.update_predict_ms" -> "ms",
    "modify.delete_pool_misses" -> "count", "modify.delete_load_ms" -> "ms", "taux.overlay_rows" -> "count",
    "snapshot.exist_keys" -> "count", "snapshot.taux_rows" -> "count",
  )
}
