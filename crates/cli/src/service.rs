//! The serving path: `snapshot write`, `snapshot inspect`, `serve`, and
//! `query` — pipeline output frozen into a binary snapshot, served over
//! TCP, and queried point-wise.

use crate::{Cli, CliError};
use eval::Scenario;
use serve::{Client, Request, Server, ServerConfig};
use snapshot::{Snapshot, SnapshotData};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

fn runtime(context: &str, e: impl std::fmt::Display) -> CliError {
    CliError::Runtime(format!("{context}: {e}"))
}

/// `snapshot write --out FILE`: runs the synthetic pipeline at the
/// configured scale/seed and freezes the result (annotations, links,
/// routers, prefix→origin table) into a `bdrmapit.snapshot/v1` file.
pub fn snapshot_write(cli: &Cli, out: &Path, rec: &obs::Recorder) -> Result<String, CliError> {
    let mut s = Scenario::build_with_obs(cli.scale.config(cli.seed), rec.clone());
    s.threads = cli.threads;
    let bundle = s.campaign(cli.vps, true, cli.seed);
    let cfg = bdrmapit_core::Config {
        threads: cli.threads,
        ..bdrmapit_core::Config::default()
    };
    let result = eval::experiments::run_bdrmapit(&s, &bundle, cfg);
    let data = SnapshotData::from_annotated(&result, &s.rib.origin_table());
    let mut f = std::fs::File::create(out).map_err(|e| runtime("creating snapshot file", e))?;
    snapshot::write_snapshot(&mut f, &data).map_err(|e| runtime("writing snapshot", e))?;
    Ok(format!(
        "wrote {}: {} annotations, {} links, {} routers, {} prefixes\n",
        out.display(),
        data.annotations.len(),
        data.links.len(),
        data.routers.len(),
        data.prefixes.len()
    ))
}

/// `snapshot inspect --file FILE`: header, section table, record counts;
/// fails with the codec's typed errors on any corruption.
pub fn snapshot_inspect(file: &Path) -> Result<String, CliError> {
    let bytes = std::fs::read(file).map_err(|e| runtime("reading snapshot", e))?;
    snapshot::inspect(&bytes).map_err(|e| runtime("invalid snapshot", e))
}

/// `serve --snapshot FILE`: loads the snapshot and serves queries until the
/// process is terminated.
pub fn serve_cmd(
    file: &Path,
    addr: &str,
    workers: usize,
    timeout_secs: u64,
    rec: &obs::Recorder,
) -> Result<String, CliError> {
    let snap = Snapshot::load_path(file).map_err(|e| runtime("loading snapshot", e))?;
    let stats = snap.stats();
    let server = Server::bind(
        addr,
        Arc::new(snap),
        ServerConfig {
            workers,
            read_timeout: Duration::from_secs(timeout_secs.max(1)),
        },
        rec.clone(),
    )
    .map_err(|e| runtime(&format!("binding {addr}"), e))?;
    // Announce readiness on stdout *before* blocking so scripts (and the CI
    // smoke job) can wait for this line instead of sleeping.
    println!(
        "serving {} on {} ({} annotations, {} links, {} routers, {} prefixes; {workers} workers)",
        file.display(),
        server.local_addr(),
        stats.annotations,
        stats.links,
        stats.routers,
        stats.prefixes
    );
    server.run().map_err(|e| runtime("serving", e))?;
    Ok(String::new())
}

/// Builds the protocol request for a `query` verb + optional argument.
/// Argument shape errors are usage errors: the command line itself is wrong.
pub fn build_request(verb: &str, arg: Option<&str>) -> Result<Request, CliError> {
    let need =
        |what: &str| CliError::Usage(crate::ParseError(format!("query {verb} requires {what}")));
    let mut req = Request::verb(verb);
    match verb {
        "lookup_addr" | "lookup_prefix" => {
            let a = arg.ok_or_else(|| need("an IPv4 address"))?;
            if net_types::parse_ipv4(a).is_none() {
                return Err(CliError::Usage(crate::ParseError(format!(
                    "bad IPv4 address {a:?}"
                ))));
            }
            req.addr = Some(a.to_string());
        }
        "router" => {
            let a = arg.ok_or_else(|| need("a router id"))?;
            req.ir =
                Some(a.parse().map_err(|_| {
                    CliError::Usage(crate::ParseError(format!("bad router id {a:?}")))
                })?);
        }
        "links_of_as" => {
            let a = arg.ok_or_else(|| need("an AS number"))?;
            req.asn =
                Some(a.parse().map_err(|_| {
                    CliError::Usage(crate::ParseError(format!("bad AS number {a:?}")))
                })?);
        }
        "stats" => {
            if arg.is_some() {
                return Err(CliError::Usage(crate::ParseError(
                    "query stats takes no argument".into(),
                )));
            }
        }
        other => {
            return Err(CliError::Usage(crate::ParseError(format!(
                "unknown query verb {other:?}"
            ))))
        }
    }
    Ok(req)
}

/// `query VERB [ARG] --server ADDR`: one request, one JSON response on
/// stdout. Exit semantics follow grep: a hit is success, a miss or any
/// transport failure is a runtime error.
pub fn query_cmd(server: &str, verb: &str, arg: Option<&str>) -> Result<String, CliError> {
    let req = build_request(verb, arg)?;
    let mut client =
        Client::connect(server).map_err(|e| runtime(&format!("connecting to {server}"), e))?;
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| runtime("configuring connection", e))?;
    let resp = client
        .call(&req)
        .map_err(|e| runtime(&format!("querying {server}"), e))?;
    if !resp.ok {
        return Err(CliError::Runtime(format!(
            "server rejected the request: {}",
            resp.error.as_deref().unwrap_or("unknown error")
        )));
    }
    let text = serde_json::to_string_pretty(&resp).map_err(|e| runtime("rendering response", e))?;
    if resp.found == Some(false) {
        return Err(CliError::Runtime(format!("no result for {verb}:\n{text}")));
    }
    Ok(text + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EXIT_RUNTIME, EXIT_USAGE};
    use net_types::Asn;
    use snapshot::AnnRecord;

    fn running_server() -> serve::RunningServer {
        let data = SnapshotData {
            annotations: vec![AnnRecord {
                addr: net_types::parse_ipv4("10.0.0.1").unwrap(),
                ir: 0,
                asn: Asn(100),
                origin: Asn(100),
                conn: Asn(0),
            }],
            prefixes: vec![("10.0.0.0/24".parse().unwrap(), Asn(100))],
            ..SnapshotData::default()
        };
        Server::bind(
            "127.0.0.1:0",
            Arc::new(Snapshot::from_data(data).unwrap()),
            ServerConfig::default(),
            obs::Recorder::disabled(),
        )
        .unwrap()
        .spawn_background()
    }

    #[test]
    fn query_hit_exits_zero() {
        let running = running_server();
        let server = running.addr().to_string();
        let out = query_cmd(&server, "lookup_addr", Some("10.0.0.1")).unwrap();
        assert!(out.contains("\"asn\": 100"), "{out}");
        let out = query_cmd(&server, "lookup_prefix", Some("10.0.0.200")).unwrap();
        assert!(out.contains("10.0.0.0/24"), "{out}");
        let out = query_cmd(&server, "stats", None).unwrap();
        assert!(out.contains("\"annotations\": 1"), "{out}");
        running.shutdown();
    }

    #[test]
    fn query_miss_is_a_runtime_error() {
        let running = running_server();
        let server = running.addr().to_string();
        let err = query_cmd(&server, "lookup_addr", Some("9.9.9.9")).unwrap_err();
        assert_eq!(err.exit_code(), EXIT_RUNTIME);
        assert!(err.to_string().contains("no result"), "{err}");
        running.shutdown();
    }

    #[test]
    fn query_connection_refused_is_a_runtime_error() {
        // A bound-then-dropped listener yields a port nothing listens on.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .to_string();
        let err = query_cmd(&addr, "stats", None).unwrap_err();
        assert_eq!(err.exit_code(), EXIT_RUNTIME);
        assert!(err.to_string().contains("connecting"), "{err}");
    }

    #[test]
    fn query_argument_shape_errors_are_usage_errors() {
        for (verb, arg) in [
            ("lookup_addr", None),
            ("lookup_addr", Some("not-an-ip")),
            ("lookup_prefix", Some("300.0.0.1")),
            ("router", Some("xyz")),
            ("router", None),
            ("links_of_as", Some("-3")),
            ("stats", Some("extra")),
            ("subspace_scan", Some("10.0.0.1")),
        ] {
            // Shape is checked before any connection: no server required.
            let err = build_request(verb, arg).unwrap_err();
            assert_eq!(err.exit_code(), EXIT_USAGE, "{verb} {arg:?}");
        }
    }

    #[test]
    fn snapshot_inspect_missing_and_corrupt_files_are_runtime_errors() {
        let err = snapshot_inspect(Path::new("/nonexistent/f.snap")).unwrap_err();
        assert_eq!(err.exit_code(), EXIT_RUNTIME);

        let path =
            std::env::temp_dir().join(format!("bdrmapit-test-badsnap-{}.snap", std::process::id()));
        std::fs::write(&path, b"not a snapshot at all").unwrap();
        let err = snapshot_inspect(&path).unwrap_err();
        assert_eq!(err.exit_code(), EXIT_RUNTIME);
        assert!(err.to_string().contains("invalid snapshot"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_write_then_inspect_then_serve_then_query() {
        let path =
            std::env::temp_dir().join(format!("bdrmapit-test-snap-{}.snap", std::process::id()));
        let cli = crate::parse(&[
            "snapshot".to_string(),
            "write".to_string(),
            "--out".to_string(),
            path.to_str().unwrap().to_string(),
            "--scale".to_string(),
            "tiny".to_string(),
            "--vps".to_string(),
            "4".to_string(),
        ])
        .unwrap();
        let out = crate::run(&cli).unwrap();
        assert!(out.contains("wrote"), "{out}");

        let text = snapshot_inspect(&path).unwrap();
        assert!(text.contains("bdrmapit.snapshot/v1"), "{text}");

        let snap = Snapshot::load_path(&path).unwrap();
        let first = snap.data().annotations[0];
        let running = Server::bind(
            "127.0.0.1:0",
            Arc::new(snap),
            ServerConfig::default(),
            obs::Recorder::disabled(),
        )
        .unwrap()
        .spawn_background();
        let server = running.addr().to_string();
        let out = query_cmd(
            &server,
            "lookup_addr",
            Some(&net_types::format_ipv4(first.addr)),
        )
        .unwrap();
        assert!(out.contains(&format!("\"asn\": {}", first.asn.0)), "{out}");
        running.shutdown();
        let _ = std::fs::remove_file(&path);
    }
}
