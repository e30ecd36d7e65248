//! `covern-perfbench --workload W --seed N --seconds S --trace 0|1
//! --cli PATH --scratch DIR`: runs one workload and prints a provenance
//! line, then the result object as the last line of standard output.

use covern_perfbench::daemon::{self, Opens};
use covern_perfbench::{catalog, output::json_str, sys, Ctx, THREADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Ctx, String> {
    let get = |key: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == key).ok_or(format!("missing {key}"))?;
        args.get(i + 1).map(String::as_str).ok_or(format!("{key} needs a value"))
    };
    let workload = get("--workload")?.to_owned();
    if !catalog::get().workloads.contains(&workload) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Ctx {
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
        cli: PathBuf::from(get("--cli")?),
        scratch: PathBuf::from(get("--scratch")?),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let ctx = match parse(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("covern-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The load generators use THREADS threads and connections; refuse a
    // machine that cannot run them side by side.
    let nproc = sys::nproc();
    if nproc < THREADS {
        eprintln!(
            "covern-perfbench: {} needs {THREADS} cores, this machine has {nproc}",
            ctx.workload
        );
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&ctx.scratch) {
        eprintln!("covern-perfbench: scratch {}: {e}", ctx.scratch.display());
        return ExitCode::from(2);
    }
    let mut out = match ctx.workload.as_str() {
        "daemon-sessions" => daemon::run(&ctx, Opens::Cached),
        "daemon-cold" => daemon::run(&ctx, Opens::Fresh),
        _ => unreachable!("workload names are validated by parse"),
    };
    if out.attempted == 0 {
        eprintln!("covern-perfbench: {} attempted nothing", ctx.workload);
        return ExitCode::from(1);
    }
    out.note_num("nproc", nproc as f64);
    out.note_num("seed", ctx.seed as f64);
    out.note_num("seconds", ctx.seconds);
    out.note("workload", json_str(&ctx.workload));
    if ctx.trace {
        let moves: Vec<String> = catalog::MOVES
            .iter()
            .map(|(name, moves)| format!("{}:{}", json_str(name), json_str(moves)))
            .collect();
        out.note("per_layer_moves", format!("{{{}}}", moves.join(",")));
    }
    let result = out.result_line(ctx.trace);
    println!("{}", out.provenance_line());
    println!("{result}");
    ExitCode::SUCCESS
}
