//! The `rmm` binary. See [`rmm_cli`] for the command grammar.

use rmm_cli::{
    compare_metrics_json, parse_args, render_compare, render_run, replay_repro, repro_json,
    run_chaos_campaign, CellExport, Command, SubmitAction, USAGE,
};

fn write_file(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(2);
    }
}

fn main() {
    let cmd = match parse_args(std::env::args().skip(1)) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    match cmd {
        Command::Help => print!("{USAGE}"),
        Command::Config => println!("{}", rmm_cli::config_template()),
        Command::Run {
            protocol,
            scenario,
            seed,
            json,
            trace_out,
            metrics_out,
            profile_out,
            sweep,
        } => {
            match render_run(protocol, &scenario, seed, json, &sweep) {
                Ok(text) => print!("{text}"),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
            }
            if !json {
                println!();
            }
            if trace_out.is_none() && metrics_out.is_none() && profile_out.is_none() {
                return;
            }
            let export = CellExport::run(protocol, &scenario, seed);
            if let Some(path) = trace_out.as_deref() {
                write_file(path, &export.trace.to_jsonl());
            }
            if let Some(path) = metrics_out.as_deref() {
                write_file(path, &export.metrics_json());
            }
            if trace_out.is_some() || metrics_out.is_some() {
                eprintln!("{}", export.trace_summary());
            }
            if let Some(path) = profile_out.as_deref() {
                write_file(path, &export.profile_json());
                eprintln!("{}", export.profile_summary());
            }
        }
        Command::Compare {
            scenario,
            seed,
            json,
            metrics_out,
            jobs,
        } => {
            print!("{}", render_compare(&scenario, seed, json, jobs));
            if !json {
                println!();
            }
            if let Some(path) = metrics_out.as_deref() {
                write_file(path, &compare_metrics_json(&scenario, seed));
            }
        }
        Command::Trace {
            protocol,
            scenario,
            seed,
            trace_out,
            metrics_out,
        } => {
            let export = CellExport::run(protocol, &scenario, seed);
            let jsonl = export.trace.to_jsonl();
            match trace_out.as_deref() {
                Some(path) => write_file(path, &jsonl),
                None => print!("{jsonl}"),
            }
            if let Some(path) = metrics_out.as_deref() {
                write_file(path, &export.metrics_json());
            }
            eprintln!("{}", export.trace_summary());
        }
        Command::Chaos {
            scenario,
            protocol,
            iters,
            budget_secs,
            seed,
            json,
            out,
            repro,
        } => {
            if let Some(path) = repro.as_deref() {
                match replay_repro(path) {
                    Ok(text) => print!("{text}"),
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(1);
                    }
                }
            } else {
                let report =
                    run_chaos_campaign(&scenario, protocol, iters, budget_secs, seed, json);
                print!("{}", report.rendered);
                if json {
                    println!();
                }
                if let Some(failure) = &report.outcome.failure {
                    if let Some(path) = out.as_deref() {
                        write_file(path, &repro_json(failure));
                        eprintln!("[repro written to {path}]");
                    }
                    std::process::exit(1);
                }
            }
        }
        Command::Serve {
            addr,
            jobs,
            max_conns,
            queue_cap,
            cache,
        } => {
            let config = rmm::serve::ServeConfig {
                addr,
                workers: jobs,
                max_conns,
                queue_cap,
                cache_path: cache.map(std::path::PathBuf::from),
                quiet: false,
            };
            match rmm::serve::Server::start(config) {
                Ok(server) => server.join(), // runs until a Shutdown request drains it
                Err(e) => {
                    eprintln!("error: cannot start server: {e}");
                    std::process::exit(2);
                }
            }
        }
        Command::Submit { addr, action } => match action {
            SubmitAction::Run {
                protocol,
                scenario,
                seed,
                trace,
                profile,
                local,
            } => {
                let req = rmm::serve::RunRequest {
                    id: 0,
                    protocol: protocol.name().to_string(),
                    scenario,
                    seed,
                    trace,
                    profile,
                };
                // Each line is printed, and flushed, as it arrives, so a
                // trace streams while the server runs it.
                let mut failed = false;
                let mut print = |line: &str| {
                    failed = line.contains("\"Error\"");
                    use std::io::Write as _;
                    let mut stdout = std::io::stdout().lock();
                    writeln!(stdout, "{line}")?;
                    stdout.flush()
                };
                if local {
                    let lines =
                        rmm::serve::local_lines(&req).expect("protocol came from parse_protocol");
                    for line in &lines {
                        print(line).expect("stdout is writable");
                    }
                } else if let Err(e) = rmm::serve::submit_each(&addr, &req, &mut print) {
                    eprintln!("error: submit to {addr}: {e}");
                    std::process::exit(2);
                }
                if failed {
                    std::process::exit(1);
                }
            }
            SubmitAction::Soak {
                requests,
                conns,
                scenario,
                seed,
                trace_every,
                expect_cached,
            } => {
                let spec = rmm::serve::SoakSpec {
                    requests,
                    conns,
                    scenario,
                    seed_base: seed,
                    trace_every,
                    expect_cached,
                };
                match rmm::serve::soak(&addr, &spec) {
                    Ok(report) => println!("{}", rmm::serve::render_soak(&report)),
                    Err(e) => {
                        eprintln!("soak FAILED: {e}");
                        std::process::exit(1);
                    }
                }
            }
            SubmitAction::Metrics => match rmm::serve::fetch_metrics(&addr) {
                Ok(text) => print!("{text}"),
                Err(e) => {
                    eprintln!("error: metrics from {addr}: {e}");
                    std::process::exit(2);
                }
            },
            SubmitAction::Shutdown => {
                if let Err(e) = rmm::serve::request_shutdown(&addr) {
                    eprintln!("error: shutdown of {addr}: {e}");
                    std::process::exit(2);
                }
            }
        },
        Command::Prof {
            protocol,
            scenario,
            seed,
            json,
            profile_out,
            prom_out,
        } => {
            let export = CellExport::run(protocol, &scenario, seed);
            let profile_json = export.profile_json();
            if json {
                println!("{profile_json}");
            } else {
                print!("{}", export.profile_tables());
            }
            if let Some(path) = profile_out.as_deref() {
                write_file(path, &profile_json);
            }
            if let Some(path) = prom_out.as_deref() {
                write_file(path, &export.prom_text());
            }
            eprintln!("{}", export.profile_summary());
        }
    }
}
