package perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable

/** Collects metrics and run facts; prints them as readable lines followed
  * by the one-line JSON result that ends standard output.
  */
final class Report {
  import Report.Entry
  private val entries = mutable.LinkedHashMap.empty[String, Entry]
  private val lines = mutable.ArrayBuffer.empty[String]

  var attempted: Long = 0
  var failed: Long = 0
  /** False when something other than a counted operation went wrong. */
  var consistent: Boolean = true

  def info(line: String): Unit = lines += line

  def add(name: String, value: Double, unit: String, note: String = ""): Unit = {
    require(!entries.contains(name), s"metric $name reported twice")
    entries(name) = Entry(value, unit, note)
  }

  def correct: Boolean = consistent && failed == 0 && attempted > 0

  def print(): Unit = {
    lines.foreach(l => println(s"# $l"))
    entries.foreach { case (k, e) =>
      val note = if (e.note.isEmpty) "" else s"  (${e.note})"
      println(f"$k%-34s ${e.value}%14.6g ${e.unit}$note")
    }
    val rate = if (attempted == 0) 0.0 else failed.toDouble / attempted
    println(f"fail_rate ${rate}%.6g ($failed of $attempted operations)")
    val bad = entries.collect { case (k, e) if !java.lang.Double.isFinite(e.value) => k }
    require(bad.isEmpty, s"non-finite metric values: ${bad.mkString(", ")}")
    val ms = entries.map { case (k, e) =>
      s""""$k": {"value": ${e.value}, "unit": "${e.unit}"}"""
    }.mkString(", ")
    println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {$ms}}""")
  }
}

object Report {
  private final case class Entry(value: Double, unit: String, note: String)
}

/** Wall clock and per-thread allocation counters. */
object Clock {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def now(): Long = System.nanoTime()

  /** Bytes allocated so far by the calling thread. */
  def allocated(): Long = threads.getCurrentThreadAllocatedBytes

  /** Bytes allocated so far by every thread of the JVM, ended ones included. */
  def allocatedAllThreads(): Long = threads.getTotalThreadAllocatedBytes

  def ms(ns: Long): Double = ns / 1e6
  def s(ns: Long): Double = ns / 1e9
}
