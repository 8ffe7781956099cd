package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Timing and, in a traced run, spans.
  *
  * [[timed]] charges a call with the CPU time that every thread of the
  * process spent inside it ([[Cpu]]): the client thread, and any thread the
  * program hands work to, garbage collection and JIT compilation included.
  * The kernel does not count the time the hypervisor steals from a virtual
  * CPU as a thread's CPU time, so these figures do not move with the steal,
  * as wall-clock ones do. [[wall]] measures wall-clock time, for the length
  * of a run.
  *
  * As a cross-check, every outermost timed call also takes the process CPU
  * time the JVM reports (in clock ticks). [[uncharged]] is true when, over
  * the run, that clearly exceeds what the calls were charged: work ran on
  * threads that ended inside a call, which [[Cpu]] cannot see.
  *
  * A span records name, wall-clock start and end, the CPU charge, the
  * parent span and the operation id. Spans are kept in memory and written
  * once, at the end of the run. An untraced run records none.
  */
final class Trace(val enabled: Boolean) {
  import Trace._
  private val spans = ArrayBuffer.empty[Span]
  private var open = -1
  private var depth = 0
  /** Id of the operation the next spans belong to. */
  var op: Long = 0
  /** Over outermost timed calls: CPU charged, CPU of the JIT compiler
    * threads (not charged), and process CPU, in ns. */
  var chargedNs = 0L
  var jitNs = 0L
  var processNs = 0L

  /** Runs `body`; returns its value and its CPU charge in ns. */
  def timed[T](name: String)(body: => T): (T, Long) = {
    val p0 = if (depth == 0) processCpu() else 0L
    val c0 = Cpu.read()
    depth += 1
    val sp = start(name)
    val v = try body finally { depth -= 1; end(sp) }
    val (ns, jit) = Cpu.since(c0)
    if (sp != null) sp.cost = ns
    if (depth == 0) { chargedNs += ns; jitNs += jit; processNs += processCpu() - p0 }
    (v, ns)
  }

  /** Runs `body`; returns its value and its wall-clock time in ns. */
  def wall[T](name: String)(body: => T): (T, Long) = {
    val t0 = System.nanoTime()
    val sp = start(name)
    val v = try body finally end(sp)
    (v, System.nanoTime() - t0)
  }

  /** Process CPU clearly above the charge plus JIT compilation: by more
    * than a tenth plus half a second (the process figure moves in 10 ms
    * ticks). */
  def uncharged: Boolean = processNs > chargedNs + jitNs + chargedNs / 10 + 500_000_000L

  private def start(name: String): Span =
    if (!enabled) null
    else {
      val sp = new Span(name, System.nanoTime(), open, op)
      open = spans.length
      spans += sp
      sp
    }

  private def end(sp: Span): Unit =
    if (sp != null) { sp.end = System.nanoTime(); open = sp.parent }

  /** One JSON object per line. `cpu_ns` is -1 for a wall-clock span. */
  def write(path: Path): Unit = {
    val sb = new StringBuilder
    spans.zipWithIndex.foreach { case (s, i) =>
      sb.append(s"""{"id":$i,"name":"${s.name}","start_ns":${s.start},"end_ns":${s.end},""" +
        s""""cpu_ns":${s.cost},"parent":${s.parent},"op":${s.op}}""").append('\n')
    }
    Files.createDirectories(path.getParent)
    Files.writeString(path, sb.toString)
  }
}

object Trace {
  private final class Span(val name: String, val start: Long, val parent: Int, val op: Long) {
    var end = 0L
    var cost = -1L
  }

  /** Process CPU time as the JVM reports it, in ns (-1 where unavailable). */
  def processCpu(): Long = ManagementFactory.getOperatingSystemMXBean match {
    case os: com.sun.management.OperatingSystemMXBean => os.getProcessCpuTime
    case _ => -1L
  }
}

/** CPU time of every thread of the process, garbage collection included,
  * from `/proc/self/task/<tid>/schedstat` (time on CPU in ns, the clock
  * behind thread CPU time). The calling thread's own time comes from the
  * JVM, read last at the start and first at the end of a window, so
  * reading the other threads' files is not charged to the call.
  *
  * The JIT compiler threads are left out: what they compile depends on how
  * far the JVM has warmed up, not on the call they happen to overlap, and
  * counting them made a run's first rounds of 10-30 ms calls up to three
  * times slower than its last.
  *
  * Where `/proc` gives no schedstat, only the calling thread's CPU time
  * plus garbage-collection pause time is charged ([[source]] says which).
  */
object Cpu {
  private val tasks = Paths.get("/proc/self/task")
  private val threads = ManagementFactory.getThreadMXBean
  private val collectors = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  /** Kernel thread id -> whether it is a JIT compiler thread. */
  private val compiler = new java.util.HashMap[String, java.lang.Boolean]()
  private val self = new ThreadLocal[String] {
    override def initialValue(): String = Files.readSymbolicLink(Paths.get("/proc/thread-self")).getFileName.toString
  }

  val allThreads: Boolean =
    try { others(); true } catch { case _: Exception => false }
  def source: String = if (allThreads) "all threads but JIT (schedstat)" else "client thread + GC pauses"

  final class Reading(val others: java.util.HashMap[String, java.lang.Long], val own: Long)

  def read(): Reading =
    if (allThreads) { val o = others(); new Reading(o, threads.getCurrentThreadCpuTime) }
    else new Reading(null, threads.getCurrentThreadCpuTime + gcNanos())

  /** CPU time spent since `r0` in ns: the charge, and the JIT compiler
    * threads' time. A thread that started since then is counted with all
    * of its time; one that ended since then is missed. */
  def since(r0: Reading): (Long, Long) =
    if (!allThreads) (threads.getCurrentThreadCpuTime + gcNanos() - r0.own, 0L)
    else {
      var sum = threads.getCurrentThreadCpuTime - r0.own
      var jit = 0L
      others().forEach { (tid, ns) =>
        val d = ns - r0.others.getOrDefault(tid, 0L)
        if (compiler.get(tid)) jit += d else sum += d
      }
      (sum, jit)
    }

  private def gcNanos(): Long = collectors.map(_.getCollectionTime).sum * 1_000_000L

  /** Time on CPU of every thread but the calling one, by kernel thread id;
    * notes which of them are JIT compiler threads. */
  private def others(): java.util.HashMap[String, java.lang.Long] = {
    val me = self.get
    val out = new java.util.HashMap[String, java.lang.Long]()
    val ids = Files.list(tasks)
    try ids.forEach { dir =>
      val tid = dir.getFileName.toString
      if (tid != me)
        try {
          if (!compiler.containsKey(tid))
            compiler.put(tid, Files.readString(dir.resolve("comm")).contains("CompilerThre"))
          val line = Files.readString(dir.resolve("schedstat"))
          out.put(tid, line.substring(0, line.indexOf(' ')).toLong)
        } catch { case _: java.io.IOException => () } // the thread ended
    } finally ids.close()
    out
  }
}

/** Named samples of one run; each metric is reported as their median. */
final class Samples {
  private val values = scala.collection.mutable.LinkedHashMap.empty[String, ArrayBuffer[Double]]
  def add(name: String, v: Double): Unit = values.getOrElseUpdate(name, ArrayBuffer.empty) += v
  def all(name: String): Seq[Double] = values.getOrElse(name, ArrayBuffer.empty).toSeq
  def median(name: String): Double = Samples.median(all(name))
  def toMap: Map[String, Seq[Double]] = values.map { case (k, v) => k -> v.toSeq }.toMap
}

object Samples {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }
}
