package repro.perfbench

import repro.compress.BlockCodec
import repro.core.{ColumnDict, DmConfig, ValueDicts}
import repro.nn.Trainer
import repro.store.KvData

/** The benchmark's inputs, made without Spark.
  *
  * The two base tables follow the `repro.data.SynthCorr` recipes: `high`
  * is the periodic customer_demographics cross-product of `multiHigh`,
  * `low` draws every column independently at random as `multiLow` does.
  * Both use the same value domains, so rows of one recipe can be inserted
  * into a structure built on the other (Tables III and IV).
  *
  * The base tables are fixed (they do not depend on the run's seed), so
  * every run trains the same model and packs the same T_aux. The run's seed
  * drives everything after the build: lookup batches, absent keys, and the
  * keys and values of every insert, update and delete.
  */
object Inputs {

  val FullRows = 100_000
  /** Base table rows. Only the self-check sets `perfbench.rows`, to run
    * small; workload sizes scale with it. */
  val Rows: Int = sys.props.get("perfbench.rows").map(_.toInt).getOrElse(FullRows)
  /** Keys per lookup batch (the paper's B). */
  val BatchKeys: Int = math.min(50_000, Rows / 2)
  /** Share of a lookup batch drawn from keys that do not exist. */
  val AbsentShare = 0.1
  /** Seed of the `low` base table. */
  val LowBaseSeed = 31L

  /** Two epochs at batch 512 leave about 0.2% of the `high` table in T_aux
    * and build in about 4 s on four cores; longer training would let
    * set-up take most of a run. */
  val Train: Trainer.Config = Trainer.Config(epochs = 2, batchSize = 512, lr = 5e-3f, lrDecay = 0.9999f)
  val PartitionBytes: Int = 512 * 1024
  val Codec: BlockCodec = BlockCodec.Zstd(3)

  private val Domains: Array[Array[String]] = Array(
    Array("M", "F"),
    Array("M", "S", "D", "W", "U"),
    Array("Primary", "Secondary", "College", "2 yr Degree", "4 yr Degree", "Advanced Degree", "Unknown"),
    Array.tabulate(20)(i => (i * 500 + 500).toString),
  )

  /** One sorted dictionary per column, as `Encoding.buildDicts` makes them. */
  val dicts: ValueDicts =
    ValueDicts(Domains.zipWithIndex.map { case (d, i) => ColumnDict(s"v${i + 1}", d.sorted) })

  private val domainCodes: Array[Array[Int]] =
    Domains.zipWithIndex.map { case (d, c) => d.map(dicts.cols(c).code) }

  def nCols: Int = Domains.length
  def rawRowBytes: Int = 8 + 4 * nCols

  /** `multiHigh`: every column is a period of the key. */
  def high(start: Long, rows: Int): KvData = {
    val keys = Array.tabulate(rows)(i => start + i)
    val cols = Array.tabulate(nCols) { c =>
      keys.map { k =>
        val x = k - 1
        val i = c match {
          case 0 => x % 2
          case 1 => (x / 2) % 5
          case 2 => (x / 10) % 7
          case _ => (x / 70) % 20
        }
        domainCodes(c)(i.toInt)
      }
    }
    KvData(keys, cols)
  }

  /** `multiLow`: independent uniform values. */
  def low(start: Long, rows: Int, rng: java.util.Random): KvData =
    withKeys(Array.tabulate(rows)(i => start + i), rng)

  /** Random values from the shared domains for the given keys. */
  def withKeys(keys: Array[Long], rng: java.util.Random): KvData =
    KvData(keys, Array.tabulate(nCols)(c => keys.map(_ => domainCodes(c)(rng.nextInt(domainCodes(c).length)))))

  def base(lowCorrelation: Boolean): KvData =
    if (lowCorrelation) low(1, Rows, new java.util.Random(LowBaseSeed)) else high(1, Rows)

  def config(base: KvData, poolShare: Double): DmConfig = {
    val pool = if (poolShare > 0) (base.rawBytes * poolShare).toLong else DmConfig().poolBudget
    DmConfig(codec = Codec, partitionBytes = PartitionBytes, poolBudget = pool, train = Train)
  }

  /** Out-of-domain lookup batches: negative keys mixed with existing keys.
    * The first batch starts with a negative key. They are the same in
    * every run and only touch base keys, which each round restores. */
  def outOfDomainBatches: Array[Array[Long]] = {
    val rng = new java.util.Random(4242L)
    Array.tabulate(3) { b =>
      val keys = Array.fill(2000)(1L + rng.nextInt(Rows))
      var i = if (b == 0) 0 else 1 + rng.nextInt(50)
      while (i < keys.length) { keys(i) = -1L - rng.nextInt(1_000_000); i += 97 }
      keys
    }
  }
}
