package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}

import scala.jdk.CollectionConverters._

/** Entry point of one benchmark run:
  * `Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>`.
  *
  * Prints the result as one JSON object on the last line of standard
  * output: end-to-end metrics without tracing, per-layer metrics with it.
  * Writes a run record (machine, JVM flags, seed, CPU time, steal ticks and
  * every end-to-end figure) to `<dir>`, and with tracing the spans too.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = opts.get("workload").flatMap(Workload.byName).getOrElse {
      System.err.println(s"unknown or missing --workload; one of ${Workload.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    val seed = opts.getOrElse("seed", "1").toLong
    val seconds = opts.getOrElse("seconds", "10").toInt
    val traced = opts.getOrElse("trace", "0") == "1"
    val out = Paths.get(opts.getOrElse("out", "."))

    val steal0 = stealTicks()
    val runner = new Runner(workload, seed, seconds, new Trace(traced))
    val res = runner.run()
    val steal1 = stealTicks()

    val tag = s"${workload.name}-seed$seed-trace${if (traced) 1 else 0}"
    Files.createDirectories(out)
    Files.writeString(out.resolve(s"run-$tag.json"), record(workload, seed, seconds, runner.trace, res, steal1 - steal0))
    if (runner.trace.uncharged)
      System.err.println(f"[perfbench] warning: process CPU over the timed calls (${runner.trace.processNs / 1e9}%.2f s) " +
        f"exceeds their charge plus JIT compilation (${(runner.trace.chargedNs + runner.trace.jitNs) / 1e9}%.2f s): work ran on threads that ended inside a call")
    if (traced) runner.trace.write(out.resolve(s"spans-$tag.jsonl"))

    val correct = res.setupOk && res.unexpected == 0
    println(json(Seq(
      "correct" -> correct.toString,
      "attempted" -> res.attempted.toString,
      "failed" -> res.failed.toString,
      "metrics" -> metrics(if (traced) res.perLayer else res.endToEnd),
    )))
  }

  private def metrics(ms: Seq[(String, Double, String)]): String =
    json(ms.map { case (name, v, unit) => name -> json(Seq("value" -> num(v), "unit" -> str(unit))) })

  private def json(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")

  private def str(s: String): String = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""

  /** Full precision; JSON has no NaN or infinity. */
  private def num(v: Double): String = if (v.isNaN || v.isInfinite) "null" else v.toString

  private def record(w: Workload, seed: Long, seconds: Int, trace: Trace, res: RunResult, steal: Long): String = {
    val rt = ManagementFactory.getRuntimeMXBean
    json(Seq(
      "workload" -> str(w.name),
      "seed" -> seed.toString,
      "seconds" -> seconds.toString,
      "trace" -> trace.enabled.toString,
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "jdk" -> str(System.getProperty("java.vm.name") + " " + System.getProperty("java.version")),
      "jvm_flags" -> rt.getInputArguments.asScala.map(str).mkString("[", ", ", "]"),
      "fork_join_parallelism" -> java.util.concurrent.ForkJoinPool.getCommonPoolParallelism.toString,
      "process_cpu_s" -> num(Trace.processCpu() / 1e9),
      "cpu_charge" -> str(Cpu.source),
      "timed_charged_cpu_s" -> num(trace.chargedNs / 1e9),
      "timed_jit_cpu_s" -> num(trace.jitNs / 1e9),
      "timed_process_cpu_s" -> num(trace.processNs / 1e9),
      "uncharged_cpu" -> trace.uncharged.toString,
      "wall_s" -> num(rt.getUptime / 1e3),
      "steal_ticks" -> steal.toString,
      "rounds" -> res.rounds.toString,
      "attempted" -> res.attempted.toString,
      "failed" -> res.failed.toString,
      "unexpected_failures" -> res.unexpected.toString,
      "setup_checks_ok" -> res.setupOk.toString,
      "keys_checked" -> res.keysChecked.toString,
      "property_checks" -> res.propertyChecks.toString,
      "base_rows" -> Inputs.Rows.toString,
      "end_to_end" -> metrics(res.endToEnd),
      "per_layer" -> metrics(res.perLayer),
      "samples" -> json(res.samples.toSeq.sortBy(_._1).map { case (k, vs) => k -> vs.map(num).mkString("[", ", ", "]") }),
    )) + "\n"
  }

  /** Machine-wide CPU steal ticks from /proc/stat (-1 where unavailable). */
  private def stealTicks(): Long =
    try {
      val cpu = Files.readAllLines(Path.of("/proc/stat")).asScala.find(_.startsWith("cpu ")).get
      cpu.trim.split("\\s+")(8).toLong
    } catch { case _: Exception => -1L }
}
