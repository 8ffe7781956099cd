package repro.perfbench

import repro.store.KvData

/** The benchmark's own oracle: a plain map from every live key to its value
  * codes, updated with every insert, update and delete the benchmark
  * issues. Lookups are checked against it key by key. */
final class Truth(nCols: Int) {
  private val values = new java.util.HashMap[java.lang.Long, Array[Int]]()
  // Live keys in a dense array (swap-remove) so a random live key is O(1).
  private val slot = new java.util.HashMap[java.lang.Long, Integer]()
  private var keys = new Array[Long](1 << 17)
  private var n = 0

  def live: Int = n
  def get(k: Long): Array[Int] = values.get(k)
  def contains(k: Long): Boolean = values.containsKey(k)

  def put(k: Long, codes: Array[Int]): Unit = {
    if (values.put(k, codes.clone()) == null) {
      if (n == keys.length) keys = java.util.Arrays.copyOf(keys, n * 2)
      keys(n) = k
      slot.put(k, n)
      n += 1
    }
  }

  def remove(k: Long): Unit =
    if (values.remove(k) != null) {
      val i = slot.remove(k).intValue
      n -= 1
      if (i != n) { keys(i) = keys(n); slot.put(keys(i), i) }
    }

  def putAll(d: KvData): Unit = {
    var i = 0
    while (i < d.rows) { put(d.keys(i), Array.tabulate(nCols)(c => d.cols(c)(i))); i += 1 }
  }

  def randomLive(rng: java.util.Random): Long = keys(rng.nextInt(n))

  /** `count` distinct live keys in random order. */
  def sampleLive(count: Int, rng: java.util.Random): Array[Long] = {
    val seen = new java.util.HashSet[java.lang.Long]()
    val out = new Array[Long](count)
    var i = 0
    while (i < count) {
      val k = randomLive(rng)
      if (seen.add(k)) { out(i) = k; i += 1 }
    }
    out
  }

  /** A non-negative key that is not live, from keys near the live domain. */
  def absentKey(span: Long, rng: java.util.Random): Long = {
    var k = 0L
    while ({ k = 1L + (rng.nextDouble() * span).toLong; contains(k) }) ()
    k
  }
}
