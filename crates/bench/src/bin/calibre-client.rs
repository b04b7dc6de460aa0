//! `calibre-client` — the worker half of the wire protocol.
//!
//! Connects to a `calibre-serve` instance, registers, answers `Assign`
//! frames with the deterministic simulated workload, and prints its
//! report once the server's `Finish` arrives:
//!
//! ```text
//! calibre-client --addr 127.0.0.1:7461 --clients 4
//! ```
//!
//! Flags:
//!
//! - `--addr <host:port>` — server TCP address; `--uds <path>` connects
//!   over a Unix socket instead;
//! - `--client <id>` — run exactly one client id;
//! - `--clients <n>` — run ids `0..n`, one thread each (the loopback
//!   smoke job's shape);
//! - `--seed <u64>` — workload seed; must match the server's
//!   (`calibre-serve --seed`), default matches `--smoke`.
//!
//! A malformed command line (unknown flag, missing or unparsable value)
//! prints the problem on stderr and exits with status 2.

use std::thread;

use calibre_bench::parse_args;
use calibre_fl::serve::{sim_client_work, ServeConfig};
use calibre_fl::transport::{run_client, ClientAddr, ClientOptions};

/// Prints a usage error on stderr and exits with status 2.
fn usage(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Parses `--key`'s value, or exits with a usage error.
fn parse_value<T: std::str::FromStr>(key: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("--{key}: cannot parse {value:?}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = parse_args(&args).unwrap_or_else(|e| usage(&format!("argument error: {e}")));

    let mut addr = "127.0.0.1:7461".to_string();
    let mut uds: Option<String> = None;
    let mut single: Option<usize> = None;
    let mut clients = 1usize;
    let mut seed = ServeConfig::smoke().seed;
    for (key, value) in &parsed {
        match key.as_str() {
            "addr" => addr = value.clone(),
            "uds" => uds = Some(value.clone()),
            "client" => single = Some(parse_value(key, value)),
            "clients" => clients = parse_value(key, value),
            "seed" => seed = parse_value(key, value),
            _ => usage(&format!("unknown flag --{key}")),
        }
    }

    let make_addr = |uds: &Option<String>, addr: &str| -> ClientAddr {
        match uds {
            #[cfg(unix)]
            Some(path) => ClientAddr::Uds(path.into()),
            #[cfg(not(unix))]
            Some(_) => panic!("--uds requires a unix platform"),
            None => ClientAddr::Tcp(addr.to_string()),
        }
    };

    let ids: Vec<usize> = match single {
        Some(id) => vec![id],
        None => (0..clients).collect(),
    };
    let handles: Vec<_> = ids
        .into_iter()
        .map(|client| {
            let addr = make_addr(&uds, &addr);
            thread::spawn(move || {
                (
                    client,
                    run_client(
                        &addr,
                        client as u64,
                        &ClientOptions::default(),
                        sim_client_work(seed, client),
                    ),
                )
            })
        })
        .collect();

    let mut failed = false;
    for handle in handles {
        let (client, result) = handle.join().expect("client thread");
        match result {
            Ok(report) => println!(
                "client {client}: rounds={} updates={} reconnects={} checksum {:016x}",
                report.rounds, report.updates_sent, report.reconnects, report.final_checksum
            ),
            Err(e) => {
                eprintln!("client {client} failed: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
