//! The newline-delimited JSON query protocol.
//!
//! One JSON object per line in each direction, connections persistent. A
//! request is a flat object — `cmd` selects the verb, the remaining fields
//! carry whichever argument the verb needs (the vendored serde subset
//! favors flat structs with `Option` fields over tagged enums):
//!
//! | `cmd`           | argument        | answers |
//! |-----------------|-----------------|---------|
//! | `lookup_addr`   | `addr` (dotted) | annotation row: router, operator, origin, connected AS |
//! | `lookup_prefix` | `addr` (dotted) | longest-prefix-match origin |
//! | `router`        | `ir` (u32)      | router operator + member interfaces |
//! | `links_of_as`   | `asn` (u32)     | interdomain links naming the AS on either side |
//! | `stats`         | —               | section record counts |
//!
//! Responses always carry `ok`. `ok: true, found: false` is a clean miss
//! (unknown address, IR, or AS); `ok: false` carries `error` and means the
//! request itself was malformed. [`dispatch`] is a pure function of
//! `(snapshot, request)` so the protocol is testable without sockets.

use serde::{Deserialize, Serialize};
use snapshot::Snapshot;

use net_types::{format_ipv4, parse_ipv4};

/// A decoded request line. Unknown JSON fields are ignored; missing
/// argument fields surface as verb-specific errors from [`dispatch`].
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Verb: `lookup_addr` | `lookup_prefix` | `router` | `links_of_as` | `stats`.
    pub cmd: String,
    /// Dotted-quad IPv4 address (for `lookup_addr` / `lookup_prefix`).
    pub addr: Option<String>,
    /// Inferred-router index (for `router`).
    pub ir: Option<u32>,
    /// AS number (for `links_of_as`).
    pub asn: Option<u32>,
}

impl Request {
    /// A request carrying only a verb.
    pub fn verb(cmd: &str) -> Request {
        Request {
            cmd: cmd.to_string(),
            ..Request::default()
        }
    }
}

/// One interdomain link as serialized in a `links_of_as` response.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkJson {
    /// Near-side IR index.
    pub ir: u32,
    /// Operator of the near-side router.
    pub ir_as: u32,
    /// Far-side interface address (dotted quad).
    pub iface_addr: String,
    /// Operator on the far side.
    pub conn_as: u32,
    /// Whether the near IR was annotated by the last-hop phase.
    pub last_hop: bool,
}

/// Section record counts — plus, when answered by a live server, uptime
/// and the per-verb request/latency table — as serialized in a `stats`
/// response. The live fields are `Option` so snapshots of the old shape
/// still deserialize (the vendored serde maps a missing field to `None`).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsJson {
    /// Annotation rows.
    pub annotations: u64,
    /// Interdomain link records.
    pub links: u64,
    /// Router-membership records.
    pub routers: u64,
    /// Prefix→origin entries.
    pub prefixes: u64,
    /// Milliseconds the answering server has been up (absent from the pure
    /// [`dispatch`] path, which has no server attached).
    pub uptime_ms: Option<u64>,
    /// Per-verb request counts and latency percentiles (absent from the
    /// pure [`dispatch`] path).
    pub verbs: Option<std::collections::BTreeMap<String, VerbStatsJson>>,
}

/// One verb's row in the `stats` response: how many requests it answered
/// and where the latency distribution sits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerbStatsJson {
    /// Requests dispatched to this verb.
    pub requests: u64,
    /// Median request latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
}

/// A response line: flat, with `ok` always present and the remaining
/// fields populated per verb. `null` fields are simply absent answers.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Whether the request was well-formed and dispatched.
    pub ok: bool,
    /// Error description when `ok` is false.
    pub error: Option<String>,
    /// Whether the lookup key existed (point-lookup verbs only).
    pub found: Option<bool>,
    /// Echo of the queried address (dotted quad).
    pub addr: Option<String>,
    /// IR index (lookup_addr / router).
    pub ir: Option<u32>,
    /// Operator AS of the router (lookup_addr / router).
    pub asn: Option<u32>,
    /// BGP origin AS of the address (lookup_addr).
    pub origin: Option<u32>,
    /// Connected-AS annotation of the interface (lookup_addr).
    pub conn: Option<u32>,
    /// Matched prefix in CIDR form (lookup_prefix).
    pub prefix: Option<String>,
    /// Member interface addresses, dotted quads (router).
    pub ifaces: Option<Vec<String>>,
    /// Link records (links_of_as).
    pub links: Option<Vec<LinkJson>>,
    /// Section counts (stats).
    pub stats: Option<StatsJson>,
}

impl Response {
    fn ok() -> Response {
        Response {
            ok: true,
            ..Response::default()
        }
    }

    /// A malformed-request response.
    pub fn error(msg: impl Into<String>) -> Response {
        Response {
            ok: false,
            error: Some(msg.into()),
            ..Response::default()
        }
    }

    fn miss() -> Response {
        Response {
            found: Some(false),
            ..Response::ok()
        }
    }
}

fn require_addr(req: &Request) -> Result<u32, Box<Response>> {
    let text = req.addr.as_deref().ok_or_else(|| {
        Box::new(Response::error(format!(
            "`{}` requires an `addr` field",
            req.cmd
        )))
    })?;
    parse_ipv4(text).ok_or_else(|| Box::new(Response::error(format!("bad IPv4 address: {text:?}"))))
}

/// Answers one request against a loaded snapshot. Pure: no I/O, no state.
pub fn dispatch(snap: &Snapshot, req: &Request) -> Response {
    match req.cmd.as_str() {
        "lookup_addr" => {
            let addr = match require_addr(req) {
                Ok(a) => a,
                Err(e) => return *e,
            };
            match snap.lookup_addr(addr) {
                Some(r) => Response {
                    found: Some(true),
                    addr: Some(format_ipv4(r.addr)),
                    ir: Some(r.ir),
                    asn: Some(r.asn.0),
                    origin: Some(r.origin.0),
                    conn: Some(r.conn.0),
                    ..Response::ok()
                },
                None => Response::miss(),
            }
        }
        "lookup_prefix" => {
            let addr = match require_addr(req) {
                Ok(a) => a,
                Err(e) => return *e,
            };
            match snap.lookup_prefix(addr) {
                Some((prefix, origin)) => Response {
                    found: Some(true),
                    prefix: Some(prefix.to_string()),
                    origin: Some(origin.0),
                    ..Response::ok()
                },
                None => Response::miss(),
            }
        }
        "router" => {
            let Some(ir) = req.ir else {
                return Response::error("`router` requires an `ir` field");
            };
            match snap.router(ir) {
                Some(r) => Response {
                    found: Some(true),
                    ir: Some(r.ir),
                    asn: Some(r.asn.0),
                    ifaces: Some(r.ifaces.iter().map(|&a| format_ipv4(a)).collect()),
                    ..Response::ok()
                },
                None => Response::miss(),
            }
        }
        "links_of_as" => {
            let Some(asn) = req.asn else {
                return Response::error("`links_of_as` requires an `asn` field");
            };
            let links: Vec<LinkJson> = snap
                .links_of_as(net_types::Asn(asn))
                .into_iter()
                .map(|l| LinkJson {
                    ir: l.ir,
                    ir_as: l.ir_as.0,
                    iface_addr: format_ipv4(l.iface_addr),
                    conn_as: l.conn_as.0,
                    last_hop: l.last_hop,
                })
                .collect();
            Response {
                found: Some(!links.is_empty()),
                links: Some(links),
                ..Response::ok()
            }
        }
        "stats" => {
            let s = snap.stats();
            Response {
                stats: Some(StatsJson {
                    annotations: s.annotations,
                    links: s.links,
                    routers: s.routers,
                    prefixes: s.prefixes,
                    ..StatsJson::default()
                }),
                ..Response::ok()
            }
        }
        other => Response::error(format!("unknown cmd: {other:?}")),
    }
}

/// Parses one request line; malformed JSON becomes the `ok: false`
/// response the server answers with instead of dropping the connection.
/// Split from [`handle_line`] so the server can learn the verb (for
/// per-verb metrics) before dispatching.
pub fn parse_line(line: &str) -> Result<Request, Box<Response>> {
    serde_json::from_str::<Request>(line)
        .map_err(|e| Box::new(Response::error(format!("bad request JSON: {e}"))))
}

/// Parses one request line and dispatches it; malformed JSON becomes an
/// `ok: false` response rather than a dropped connection.
pub fn handle_line(snap: &Snapshot, line: &str) -> Response {
    match parse_line(line) {
        Ok(req) => dispatch(snap, &req),
        Err(e) => *e,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_types::Asn;
    use snapshot::{AnnRecord, LinkRecord, RouterRecord, SnapshotData};

    fn snap() -> Snapshot {
        Snapshot::from_data(SnapshotData {
            annotations: vec![AnnRecord {
                addr: parse_ipv4("10.0.0.1").unwrap(),
                ir: 3,
                asn: Asn(100),
                origin: Asn(100),
                conn: Asn(200),
            }],
            links: vec![LinkRecord {
                ir: 3,
                ir_as: Asn(100),
                iface_addr: parse_ipv4("10.0.1.1").unwrap(),
                conn_as: Asn(200),
                last_hop: true,
            }],
            routers: vec![RouterRecord {
                ir: 3,
                asn: Asn(100),
                ifaces: vec![parse_ipv4("10.0.0.1").unwrap()],
            }],
            prefixes: vec![("10.0.0.0/24".parse().unwrap(), Asn(100))],
        })
        .unwrap()
    }

    fn req(json: &str) -> Response {
        handle_line(&snap(), json)
    }

    #[test]
    fn lookup_addr_hit_and_miss() {
        let r = req(r#"{"cmd":"lookup_addr","addr":"10.0.0.1"}"#);
        assert!(r.ok);
        assert_eq!(r.found, Some(true));
        assert_eq!(r.asn, Some(100));
        assert_eq!(r.conn, Some(200));
        assert_eq!(r.ir, Some(3));
        let r = req(r#"{"cmd":"lookup_addr","addr":"9.9.9.9"}"#);
        assert!(r.ok);
        assert_eq!(r.found, Some(false));
        assert_eq!(r.asn, None);
    }

    #[test]
    fn lookup_prefix_matches_longest() {
        let r = req(r#"{"cmd":"lookup_prefix","addr":"10.0.0.200"}"#);
        assert_eq!(r.prefix.as_deref(), Some("10.0.0.0/24"));
        assert_eq!(r.origin, Some(100));
        let r = req(r#"{"cmd":"lookup_prefix","addr":"11.0.0.1"}"#);
        assert_eq!(r.found, Some(false));
    }

    #[test]
    fn router_returns_members() {
        let r = req(r#"{"cmd":"router","ir":3}"#);
        assert_eq!(r.asn, Some(100));
        assert_eq!(r.ifaces, Some(vec!["10.0.0.1".to_string()]));
        let r = req(r#"{"cmd":"router","ir":99}"#);
        assert_eq!(r.found, Some(false));
    }

    #[test]
    fn links_of_as_covers_both_sides() {
        for asn in [100u32, 200] {
            let r = req(&format!(r#"{{"cmd":"links_of_as","asn":{asn}}}"#));
            let links = r.links.unwrap();
            assert_eq!(links.len(), 1, "asn {asn}");
            assert_eq!(links[0].iface_addr, "10.0.1.1");
            assert!(links[0].last_hop);
        }
        let r = req(r#"{"cmd":"links_of_as","asn":999}"#);
        assert_eq!(r.found, Some(false));
        assert_eq!(r.links, Some(vec![]));
    }

    #[test]
    fn stats_counts_sections() {
        let r = req(r#"{"cmd":"stats"}"#);
        let s = r.stats.unwrap();
        assert_eq!(
            (s.annotations, s.links, s.routers, s.prefixes),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn malformed_requests_get_typed_errors_not_disconnects() {
        for bad in [
            "not json at all",
            r#"{"cmd":"lookup_addr"}"#,
            r#"{"cmd":"lookup_addr","addr":"256.1.2.3"}"#,
            r#"{"cmd":"router"}"#,
            r#"{"cmd":"links_of_as"}"#,
            r#"{"cmd":"warp_core_breach"}"#,
        ] {
            let r = req(bad);
            assert!(!r.ok, "{bad}");
            assert!(r.error.is_some(), "{bad}");
        }
    }

    #[test]
    fn response_roundtrips_through_json() {
        let r = req(r#"{"cmd":"lookup_addr","addr":"10.0.0.1"}"#);
        let text = serde_json::to_string(&r).unwrap();
        let back: Response = serde_json::from_str(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn unknown_request_fields_are_ignored() {
        let r = req(r#"{"cmd":"stats","flux_capacitor":true}"#);
        assert!(r.ok);
        assert!(r.stats.is_some());
    }
}
