//! `figures [name…|all] [--quick|--full]`: run experiments of the
//! [`bat_bench::EXPERIMENTS`] registry, print their tables and save them as
//! CSVs under `target/experiments/`.
//!
//! ```sh
//! cargo run --release -p bat-bench --bin figures -- all --quick
//! cargo run --release -p bat-bench --bin figures -- fig5 fig12
//! ```

use bat_bench::{Experiment, Kind, RunScale, EXPERIMENTS};

fn usage() -> ! {
    eprintln!("usage: figures [name…|all] [--quick|--full]\n\nexperiments:");
    for e in EXPERIMENTS {
        eprintln!("  {:<18} {:?}: {}", e.name, e.kind, e.artefact);
    }
    std::process::exit(2);
}

fn main() {
    let mut scale = ("default", RunScale::Default);
    let mut chosen: Vec<&Experiment> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => scale = ("quick", RunScale::Quick),
            "--full" => scale = ("full", RunScale::Full),
            "all" => chosen.extend(EXPERIMENTS),
            name => match EXPERIMENTS.iter().find(|e| e.name == name) {
                Some(e) => chosen.push(e),
                None => {
                    eprintln!("figures: no experiment or flag `{name}`");
                    usage()
                }
            },
        }
    }
    if chosen.is_empty() {
        chosen.extend(EXPERIMENTS);
    }

    // The run envelope: the fields `benchmark/` stamps its rows with.
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or("unknown".to_string(), |sha| sha.trim().to_string());
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let envelope = format!(
        "commit={commit} host_cores={host_cores} unix_time={unix_time} scale={}",
        scale.0
    );
    println!("{envelope}");

    for e in chosen {
        println!(
            "\n########## {} ({:?}) — {} ##########",
            e.name, e.kind, e.artefact
        );
        // Only wall-clock tables carry the envelope: modeled ones depend on
        // neither host nor time (crates/bench/tests/golden.rs says so).
        let stamp = (e.kind == Kind::Executed).then_some(envelope.as_str());
        for table in (e.run)(scale.1) {
            print!("{}", table.render());
            let csv = table.save_csv(stamp).expect("write csv");
            println!("saved {}", csv.display());
        }
        println!("\nExpected shape (paper): {}", e.expect);
    }
}
