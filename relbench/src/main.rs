//! `relbench`: the archrel benchmark.
//!
//! Three workloads, one per kind of user of Grassi's eq. 3 `Pfail(S, fp)`:
//!
//! - `serve_mixed`: a service orchestrator querying the warm `archrel serve`
//!   daemon over a Unix socket, closed loop, 4 requests in flight;
//! - `design_batch`: an architect running design-time analyses in process
//!   (one-shot predict, sweeps, uncertainty, sensitivity);
//! - `fleet_stream`: a monitoring pipeline streaming usage traces into a
//!   10k-service fleet and refreshing its predictions.
//!
//! ```text
//! relbench --workload NAME --seed N --seconds S --trace 0|1
//!          [--archrel PATH] [--rustc VERSION] [--workdir DIR]
//!          [--nproc N] [--cpu C]
//! ```
//!
//! With `--trace 0` the run measures with no instrumentation and its last
//! stdout line carries the end-to-end metrics; with `--trace 1` it times the
//! calls into each layer from outside the program and the last line carries
//! the per-layer metrics. Every answer is checked outside the timed region;
//! a wrong answer counts as a failed operation.

mod design_batch;
mod fleet_stream;
mod mix;
mod report;
mod serve_mixed;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use archrel_core::SimdMode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measuring window.
    pub window: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// The `archrel` binary the daemon workload spawns.
    pub archrel: Option<PathBuf>,
    /// `rustc --version` of the toolchain that built the binaries.
    pub rustc: String,
    /// Scratch directory for sockets, model files and artifact stores.
    pub workdir: PathBuf,
    /// CPUs of the machine (the run itself may be pinned to fewer).
    pub nproc: usize,
    /// The CPU the run is pinned to, if any.
    pub cpu: Option<usize>,
}

/// Renders any error as the message a failed run prints.
pub(crate) fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

const USAGE: &str = "usage: relbench --workload serve_mixed|design_batch|fleet_stream \
--seed N --seconds S --trace 0|1 [--archrel PATH] [--rustc VERSION] [--workdir DIR] \
[--nproc N] [--cpu C]";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut archrel = None;
    let mut rustc = "unknown".to_string();
    let mut workdir = PathBuf::from(".bench_build/relbench-run");
    let mut nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut cpu = None;
    let count = |flag: &str, value: &str| {
        value
            .parse::<usize>()
            .map_err(|_| format!("{flag}: expected a count, got `{value}`"))
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?
            .clone();
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed =
                    Some(value.parse::<u64>().map_err(|_| {
                        format!("--seed: expected an unsigned integer, got `{value}`")
                    })?)
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| {
                            format!("--seconds: expected a positive number, got `{value}`")
                        })?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got `{value}`")),
                })
            }
            "--archrel" => archrel = Some(PathBuf::from(value)),
            "--rustc" => rustc = value,
            "--workdir" => workdir = PathBuf::from(value),
            "--nproc" => nproc = count("--nproc", &value)?,
            "--cpu" => cpu = Some(count("--cpu", &value)?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["serve_mixed", "design_batch", "fleet_stream"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Config {
        workload,
        seed: seed.ok_or("missing --seed")?,
        window: Duration::from_secs_f64(seconds.ok_or("missing --seconds")?),
        trace: trace.ok_or("missing --trace")?,
        archrel,
        rustc,
        workdir: workdir.join(std::process::id().to_string()),
        nproc,
        cpu,
    })
}

/// The machine and build a record was measured on.
fn fingerprint(config: &Config) -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
\"pinned_cpu\": {}, \"simd_auto\": \"{:?}\", \"profile\": \"{profile}\", \"rustc\": \"{}\", \"os\": \"{}\", \"arch\": \"{}\"}}",
        config.workload,
        config.seed,
        config.window.as_secs_f64(),
        u8::from(config.trace),
        config.nproc,
        config.cpu.map_or("null".to_string(), |c| c.to_string()),
        SimdMode::Auto.resolve(),
        config.rustc.replace('"', "'"),
        std::env::consts::OS,
        std::env::consts::ARCH,
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("relbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("# record {}", fingerprint(&config));
    if let Err(e) = std::fs::create_dir_all(&config.workdir) {
        eprintln!("relbench: cannot create {}: {e}", config.workdir.display());
        return ExitCode::FAILURE;
    }
    let outcome = match config.workload.as_str() {
        "serve_mixed" => serve_mixed::run(&config),
        "design_batch" => design_batch::run(&config),
        _ => fleet_stream::run(&config),
    };
    let _ = std::fs::remove_dir_all(&config.workdir);
    match outcome {
        Ok(outcome) => {
            print!("{}", report::table(&outcome, config.trace));
            println!("{}", report::result_line(&outcome, config.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("relbench: {} failed: {e}", config.workload);
            ExitCode::FAILURE
        }
    }
}
