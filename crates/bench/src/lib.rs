//! Shared helpers for the benchmark binaries.
//!
//! The `parbench` reports (`BENCH_demag.json`, `BENCH_rhs.json`,
//! `BENCH_serve.json`) use machine-readable JSON envelopes so downstream
//! tooling can parse them uniformly. The grid-sweep benchmarks share one
//! envelope shape ([`write_bench_json`]); other benchmarks assemble their
//! own document and write it through [`write_report`].

use swjson::Json;

/// Assembles the common benchmark-report envelope (with the machine's
/// hardware thread count, `cpus`), writes it to `out` with a trailing
/// newline, and prints the path.
///
/// # Panics
///
/// Panics if the report file cannot be written.
pub fn write_bench_json(out: &str, benchmark: &str, unit: &str, reference: &str, grids: Vec<Json>) {
    let cpus = std::thread::available_parallelism().map_or(1, |c| c.get());
    let report = Json::obj([
        ("benchmark", Json::str(benchmark)),
        ("unit", Json::str(unit)),
        ("reference", Json::str(reference)),
        ("cpus", Json::Num(cpus as f64)),
        ("grids", Json::Arr(grids)),
    ]);
    write_report(out, &report);
}

/// Writes any JSON benchmark report to `out` with a trailing newline and
/// prints the path. Use this for reports whose shape doesn't fit the
/// grid-sweep envelope of [`write_bench_json`].
///
/// # Panics
///
/// Panics if the report file cannot be written.
pub fn write_report(out: &str, report: &Json) {
    std::fs::write(out, report.render() + "\n").expect("failed to write report");
    println!("wrote {out}");
}
