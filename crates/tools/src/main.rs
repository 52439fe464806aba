//! `batcli` — command-line tools for BAT datasets.
//!
//! ```text
//! batcli info   <dir> <basename>            dataset summary (files, attrs, ranges)
//! batcli files  <dir> <basename>            per-leaf-file table (sizes, bounds, counts)
//! batcli verify <dir> <basename> [--deep]   crash-consistency check: commit marker,
//!                                           lengths + CRC32C of every leaf
//! batcli query  <dir> <basename> [options]  count/dump points matching a query
//! batcli stats  <dir> <basename>            layout overhead breakdown per file
//! batcli stats  [--json]                    run an instrumented demo write/read and
//!                                           print the per-phase metrics breakdown
//! batcli serve  <dir> <basename> [options]  serve the dataset to stream clients
//!                                           (bounded pool, treelet cache, deadlines)
//! batcli shard-serve <dir> <basename> [options]  serve through a multi-process
//!                                           shard fabric (router + N workers)
//! batcli env                                print every BAT_* knob in effect
//! batcli density <dir> <basename>           ASCII density projection
//! ```
//!
//! Run `batcli <command> --help` for options.

use bat_tools::commands;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => {
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd {
        "info" => commands::info(rest),
        "files" => commands::files(rest),
        "verify" => commands::verify(rest),
        "query" => commands::query(rest),
        "stats" => commands::stats(rest),
        "serve" => commands::serve(rest),
        "shard-serve" => commands::shard_serve(rest),
        "shard-worker" => commands::shard_worker(rest),
        "env" => commands::env(rest),
        "density" => commands::density(rest),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("unknown command '{other}'\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    "batcli — inspect and query BAT particle datasets

USAGE:
    batcli info   <dir> <basename>
    batcli files  <dir> <basename>
    batcli verify <dir> <basename> [--deep]
    batcli query  <dir> <basename> [--quality Q] [--prev-quality Q]
                                   [--bounds x0,y0,z0,x1,y1,z1]
                                   [--filter ATTR,LO,HI]... [--dump [N]]
    batcli stats  <dir> <basename>
    batcli stats  [--json]            (no dataset: instrumented demo write/read,
                                       prints the per-phase metrics breakdown)
    batcli serve  <dir> <basename> [--addr HOST:PORT] [--workers N] [--queue N]
                                   [--deadline-ms MS] [--smoke]
                                   (read backend and cache budget: BAT_READ_BACKEND,
                                    BAT_CACHE_BYTES)
    batcli shard-serve <dir> <basename> [--shards N] [--addr HOST:PORT]
                                   [--workers N] [--queue N] [--deadline-ms MS]
                                   [--smoke]   (spawns N shard worker processes)
    batcli env                        (print every BAT_* knob and its parsed value;
                                       exit 1 if one is invalid or names no knob)
    batcli density <dir> <basename> [--quality Q]"
}
