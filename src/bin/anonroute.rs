//! `anonroute` — command-line front end for the library.
//!
//! ```text
//! anonroute analyze  --n 100 --c 1 --dist fixed:5 [--cyclic]
//! anonroute sweep    --n 100 --c 1 --from 0 --to 99
//! anonroute optimize --n 100 --c 1 [--mean 8] [--lmax 99]
//! anonroute simulate --n 30 --c 2 --dist uniform:1:6 --messages 2000 [--seed 7]
//! anonroute frontier --n 100 --c 1 --max-mean 20
//! anonroute campaign --n 50,100,200 --c 1..=5 --strategies fixed:1,uniform:2:8
//! anonroute cluster  --n 12 --c 1 --dist uniform:1:4 --messages 400
//! anonroute dird     --listen 127.0.0.1:9030 --receiver 127.0.0.1:9100
//! anonroute relay    --directory net.dir --id 0
//! anonroute relay    --authority 127.0.0.1:9030 --id 0
//! anonroute send     --directory net.dir --sender 3 --dist fixed:3
//! anonroute send     --authority 127.0.0.1:9030 --sender 3 --dist fixed:3
//! ```

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

use anonroute::adversary::{attack_trace, Adversary};
use anonroute::campaign::{manifest, report, spec, RUN_SETTINGS};
use anonroute::crypto::handshake::NodeIdentity;
use anonroute::obs::{Health, ObsServer, Registry};
use anonroute::prelude::*;
use anonroute::protocols::onion_routing::onion_network;
use anonroute::protocols::RouteSampler;
use anonroute::relay::{
    max_connections_for, run_cluster, AuthorityClient, AuthorityServer, Client, ClusterConfig,
    Directory, DirectoryCell, GossipRunner, LinkTap, MembershipChange, NetworkView, PendingRelay,
    ReceiverServer, Relay, RelayConfig, RelayDescriptor, DEFAULT_CELL_SIZE, MAX_CONNECTIONS,
};
use anonroute::sim::traffic::UniformTraffic;
use anonroute::sim::{Endpoint, LatencyModel, MsgId, SimTime, Simulation};
use anonroute_experiments::output::ensure_results_dir;

const USAGE: &str = "\
anonroute — optimal route-selection strategies for anonymous communication
            (Guan, Fu, Bettati, Zhao — ICDCS 2002)

USAGE:
    anonroute <command> [--flag value]...

COMMANDS:
    analyze    exact anonymity degree and class breakdown of a strategy
               --n <nodes> --c <compromised> --dist <spec> [--cyclic]
    sweep      fixed-length sweep F(l) for l in --from..=--to
               --n <nodes> --c <compromised> [--from 0] [--to n-1]
    optimize   solve the paper's optimization problem
               --n <nodes> --c <compromised> [--mean <E[L]>] [--lmax <max>]
    simulate   run the onion-routing stack and attack it
               --n <nodes> --c <compromised> --dist <spec>
               [--messages 2000] [--seed 7]
    frontier   anonymity-vs-overhead frontier (optimal H* per mean length)
               --n <nodes> --c <compromised> [--max-mean 20]
    cluster    spin an in-process loopback relay cluster, drive seeded
               traffic over real TCP, and attack the per-link tap
               --n <nodes> --c <compromised> --dist <spec>
               [--messages 400] [--seed 7] [--cell 2048]
               [--payload-len 16] [--cyclic]
    dird       run the directory authority: signed, versioned relay
               descriptors with join/leave tracking and gossip bootstrap
               --receiver <addr> [--listen 127.0.0.1:9030]
               [--net-seed <str>] [--lease-ms 0]
               (--lease-ms > 0 expires members that stop heartbeating)
    relay      run one standalone TCP relay daemon against a directory
               --directory <file> --id <id>
               [--net-seed <str>] [--cell 2048] [--seed 7]
               [--metrics-addr 127.0.0.1:9464]
               (--receiver instead of --id runs the destination server)
               --authority <addr> replaces the static --directory file:
               the relay publishes its signed descriptor, learns the
               topology from the authority plus peer gossip, and drops
               departed peers by connection health
               [--listen 127.0.0.1:0] picks the advertised bind address
    send       build onion circuits and send payloads over a live net
               --directory <file> --sender <id> --dist <spec>
               [--net-seed <str>] [--count 1] [--payload <text>]
               [--seed 7] [--cell 2048] [--cyclic]
               (--authority <addr> fetches the directory instead)
    campaign   evaluate a declarative scenario grid in parallel
               --n <list> --c <list> --strategies <list>
               [--paths simple,cyclic] [--engines exact,mc,sim,live]
               [--epochs 1,4] [--rotation static,shift:2,resample]
               [--churn none,iid:0.25]
               [--spec grid.toml] [--threads 0] [--seed 7]
               [--mc-samples 20000] [--messages 1500]
               [--sim-max-n 1000000]
               [--live-messages 300] [--live-max-n 64] [--live-cell 1024]
               [--out <basename>] [--timing]
               [--progress] [--metrics-addr 127.0.0.1:0]
               [--trace-out trace.json]
               lists take values and ranges: 50,100,200 or 1..=5
               writes <basename>.jsonl, <basename>.csv,
               <basename>_timings.csv, <basename>_manifest.json
               `live` cells boot a real loopback TCP relay cluster per cell;
               every dial and frame write in it has a 5 s deadline, so a
               wedged relay fails its cell instead of hanging the sweep
               epochs > 1 runs the multi-round intersection adversary:
               persistent sessions, per-epoch compromised-set rotation,
               node churn, and cumulative anonymity-decay scoring
               --progress prints a ~1 Hz ticker on stderr; --metrics-addr
               serves /metrics, /healthz, /readyz, and the operator
               control plane (POST /control/pause|resume|drain|abort)
               for the sweep's duration; --trace-out writes a Chrome-trace
               JSON span timeline (load it in Perfetto or
               chrome://tracing)
               (observability never changes results: artifacts stay
               byte-identical per seed with it on or off)
    manifest-check
               validate a campaign run manifest written by `campaign`
               --file <path>_manifest.json
    help       show this text

DISTRIBUTION SPECS:
    fixed:L              exactly L intermediate nodes
    uniform:A:B          uniform over A..=B
    twopoint:L1:P:L2     L1 with probability P, else L2
    geometric:PF:LMAX    Crowds-style, forwarding probability PF
    optimal[:MEAN]       the paper's optimal strategy (campaign only)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `anonroute help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        println!("{USAGE}");
        return Ok(());
    };
    let flags = parse_flags(&args[1..])?;
    match command.as_str() {
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        "analyze" => cmd_analyze(&flags),
        "sweep" => cmd_sweep(&flags),
        "optimize" => cmd_optimize(&flags),
        "simulate" => cmd_simulate(&flags),
        "frontier" => cmd_frontier(&flags),
        "campaign" => cmd_campaign(&flags),
        "manifest-check" => cmd_manifest_check(&flags),
        "cluster" => cmd_cluster(&flags),
        "dird" => cmd_dird(&flags),
        "relay" => cmd_relay(&flags),
        "send" => cmd_send(&flags),
        other => Err(format!("unknown command `{other}`")),
    }
}

type Flags = HashMap<String, String>;

/// Flags that may appear without a value (`relay --receiver`), besides
/// the campaign's switch settings. They still accept one when the next
/// token is not a flag, which is how `dird --receiver <addr>` names the
/// delivery endpoint.
const BOOLEAN_FLAGS: &[&str] = &["cyclic", "timing", "receiver"];

fn is_boolean_flag(name: &str) -> bool {
    BOOLEAN_FLAGS.contains(&name) || RUN_SETTINGS.iter().any(|s| s.flag == name && s.is_switch())
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            return Err(format!("expected a --flag, got `{a}`"));
        };
        if is_boolean_flag(name) {
            let value = match it.peek() {
                Some(next) if !next.starts_with("--") => it.next().expect("peeked").clone(),
                _ => "true".to_string(),
            };
            flags.insert(name.to_string(), value);
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn get<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: cannot parse `{v}`")),
    }
}

fn require<T: std::str::FromStr>(flags: &Flags, name: &str) -> Result<T, String> {
    let v = flags
        .get(name)
        .ok_or_else(|| format!("missing required flag --{name}"))?;
    v.parse()
        .map_err(|_| format!("--{name}: cannot parse `{v}`"))
}

fn model_from(flags: &Flags) -> Result<SystemModel, String> {
    let n: usize = require(flags, "n")?;
    let c: usize = require(flags, "c")?;
    let kind = if flags.contains_key("cyclic") {
        PathKind::Cyclic
    } else {
        PathKind::Simple
    };
    SystemModel::with_path_kind(n, c, kind).map_err(|e| e.to_string())
}

fn dist_from(flags: &Flags) -> Result<PathLengthDist, String> {
    let spec: String = require(flags, "dist")?;
    parse_dist(&spec)
}

fn parse_dist(spec: &str) -> Result<PathLengthDist, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let err = |m: &str| format!("--dist `{spec}`: {m}");
    let parse_usize = |s: &str| {
        s.parse::<usize>()
            .map_err(|_| err(&format!("bad integer `{s}`")))
    };
    let parse_f64 = |s: &str| {
        s.parse::<f64>()
            .map_err(|_| err(&format!("bad number `{s}`")))
    };
    match parts.as_slice() {
        ["fixed", l] => Ok(PathLengthDist::fixed(parse_usize(l)?)),
        ["uniform", a, b] => PathLengthDist::uniform(parse_usize(a)?, parse_usize(b)?)
            .map_err(|e| err(&e.to_string())),
        ["twopoint", l1, p, l2] => {
            PathLengthDist::two_point(parse_usize(l1)?, parse_f64(p)?, parse_usize(l2)?)
                .map_err(|e| err(&e.to_string()))
        }
        ["geometric", pf, lmax] => PathLengthDist::geometric(parse_f64(pf)?, parse_usize(lmax)?)
            .map_err(|e| err(&e.to_string())),
        _ => Err(err("unknown form (see `anonroute help`)")),
    }
}

fn cmd_analyze(flags: &Flags) -> Result<(), String> {
    let model = model_from(flags)?;
    let dist = dist_from(flags)?;
    let analysis = engine::analysis(&model, &dist).map_err(|e| e.to_string())?;
    let report = AnonymityReport::evaluate(&model, &dist).map_err(|e| e.to_string())?;
    println!("{model}, strategy {dist}");
    println!("{report}");
    println!("\nobservation classes:");
    println!(
        "{:>44}  {:>11}  {:>10}  {:>8}",
        "class", "probability", "entropy", "suspect"
    );
    for r in &analysis.classes {
        println!(
            "{:>44}  {:>11.6}  {:>10.4}  {:>8.4}",
            format!("{:?}", r.class),
            r.probability,
            r.entropy_bits,
            r.suspect_posterior
        );
    }
    Ok(())
}

fn cmd_sweep(flags: &Flags) -> Result<(), String> {
    let model = model_from(flags)?;
    let from: usize = get(flags, "from", 0)?;
    let to: usize = get(flags, "to", model.n() - 1)?;
    if from > to {
        return Err("--from exceeds --to".into());
    }
    println!("{model}: H* of fixed-length strategies");
    println!("{:>5}  {:>10}", "l", "H* (bits)");
    let mut best = (0usize, f64::NEG_INFINITY);
    for l in from..=to {
        let h = engine::anonymity_degree(&model, &PathLengthDist::fixed(l))
            .map_err(|e| e.to_string())?;
        println!("{l:>5}  {h:>10.6}");
        if h > best.1 {
            best = (l, h);
        }
    }
    println!("\nbest: F({}) with H* = {:.6}", best.0, best.1);
    Ok(())
}

fn cmd_optimize(flags: &Flags) -> Result<(), String> {
    let model = model_from(flags)?;
    if model.path_kind() == PathKind::Cyclic {
        return Err("the optimizer covers the paper's simple-path design space".into());
    }
    let lmax: usize = get(flags, "lmax", model.n() - 1)?;
    let outcome = match flags.get("mean") {
        Some(m) => {
            let mean: f64 = m.parse().map_err(|_| "--mean: bad number".to_string())?;
            optimize::maximize_with_mean(&model, lmax, mean).map_err(|e| e.to_string())?
        }
        None => optimize::maximize(&model, lmax).map_err(|e| e.to_string())?,
    };
    println!("{model}: optimal strategy over support 0..={lmax}");
    println!(
        "H* = {:.6} bits (upper bound log2 n = {:.6})",
        outcome.h_star,
        model.max_entropy_bits()
    );
    println!("E[L] = {:.4}", outcome.dist.mean());
    println!("\npmf (masses > 0.1%):");
    for (l, &p) in outcome.dist.pmf().iter().enumerate() {
        if p > 1e-3 {
            println!(
                "  P[L={l:>3}] = {p:.4}  {}",
                "#".repeat((p * 120.0).round() as usize)
            );
        }
    }
    Ok(())
}

fn cmd_simulate(flags: &Flags) -> Result<(), String> {
    let model = model_from(flags)?;
    if model.path_kind() == PathKind::Cyclic {
        return Err(
            "simulate runs the onion stack on simple paths; use Crowds via the library for cyclic"
                .into(),
        );
    }
    let dist = dist_from(flags)?;
    let messages: usize = get(flags, "messages", 2000)?;
    let seed: u64 = get(flags, "seed", 7)?;
    let n = model.n();
    let c = model.c();

    let sampler =
        RouteSampler::new(n, dist.clone(), PathKind::Simple).map_err(|e| e.to_string())?;
    let nodes = onion_network(n, &sampler, 2048, b"anonroute-cli").map_err(|e| e.to_string())?;
    let mut sim = Simulation::new(nodes, LatencyModel::Uniform { lo: 100, hi: 2000 }, seed);
    let mut salt = seed | 1;
    for i in 0..messages as u64 {
        salt = salt
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        sim.schedule_origination(
            SimTime::from_micros(i * 100),
            (salt >> 33) as usize % n,
            vec![0u8; 16],
        );
    }
    sim.run();

    let compromised: Vec<usize> = (n - c..n).collect();
    let adversary = Adversary::new(n, &compromised).map_err(|e| e.to_string())?;
    let report = attack_trace(&adversary, &model, &dist, sim.trace(), sim.originations())
        .map_err(|e| e.to_string())?;
    let exact = engine::anonymity_degree(&model, &dist).map_err(|e| e.to_string())?;
    let (lo, hi) = report.ci95();

    println!("{model}, strategy {dist}, {messages} messages, seed {seed}");
    println!(
        "trace edges: {}, deliveries: {}",
        sim.trace().len(),
        sim.deliveries().len()
    );
    println!(
        "\nempirical H*: {:.4} bits (95% CI [{:.4}, {:.4}])",
        report.empirical_h_star, lo, hi
    );
    println!("exact     H*: {exact:.4} bits");
    println!(
        "identification rate: {:.2}%",
        report.identification_rate * 100.0
    );
    println!(
        "mean posterior on true sender: {:.4}",
        report.mean_true_sender_prob
    );
    Ok(())
}

fn cmd_frontier(flags: &Flags) -> Result<(), String> {
    let model = model_from(flags)?;
    let max_mean: usize = get(flags, "max-mean", 20)?;
    let lmax = (model.n() - 1).min(2 * max_mean + 20);
    println!("{model}: anonymity-vs-overhead frontier (optimal H* per expected length)");
    println!("{:>7}  {:>12}  {:>12}", "E[L]", "optimal H*", "fixed H*");
    for mean in 1..=max_mean {
        let opt =
            optimize::maximize_with_mean(&model, lmax, mean as f64).map_err(|e| e.to_string())?;
        let fixed = engine::anonymity_degree(&model, &PathLengthDist::fixed(mean))
            .map_err(|e| e.to_string())?;
        println!("{mean:>7}  {:>12.6}  {fixed:>12.6}", opt.h_star);
    }
    Ok(())
}

fn cmd_cluster(flags: &Flags) -> Result<(), String> {
    use rand::SeedableRng;
    let model = model_from(flags)?;
    let dist = dist_from(flags)?;
    let messages: usize = get(flags, "messages", 400)?;
    let seed: u64 = get(flags, "seed", 7)?;
    let payload_len: usize = get(flags, "payload-len", 16)?;
    let n = model.n();
    let c = model.c();

    let mut config = ClusterConfig::new(n, dist.clone());
    config.path_kind = model.path_kind();
    config.seed = seed;
    config.cell_size = get(flags, "cell", DEFAULT_CELL_SIZE)?;
    let arrivals = UniformTraffic {
        count: messages,
        interval_us: 0,
        payload_len,
    }
    .generate(
        n,
        &mut rand::rngs::StdRng::seed_from_u64(seed ^ 0xA221_7A15),
    );

    println!("cluster: {n} relays on 127.0.0.1, {messages} messages, strategy {dist}, seed {seed}");
    let outcome = run_cluster(&config, &arrivals).map_err(|e| e.to_string())?;
    let relayed: u64 = outcome.stats.iter().map(|s| s.relayed).sum();
    let dropped: u64 = outcome.stats.iter().map(|s| s.dropped).sum();
    println!(
        "delivered {} of {} over TCP; {} cells relayed, {} dropped, {} link records tapped",
        outcome.deliveries.len(),
        messages,
        relayed,
        dropped,
        outcome.trace.len()
    );

    let compromised: Vec<usize> = (n - c..n).collect();
    let adversary = Adversary::new(n, &compromised).map_err(|e| e.to_string())?;
    let report = attack_trace(
        &adversary,
        &model,
        &dist,
        &outcome.trace,
        &outcome.originations,
    )
    .map_err(|e| e.to_string())?;
    let exact = engine::anonymity_degree(&model, &dist).map_err(|e| e.to_string())?;
    let (lo, hi) = report.ci95();
    println!(
        "\nempirical H* from the link tap: {:.4} bits (95% CI [{:.4}, {:.4}])",
        report.empirical_h_star, lo, hi
    );
    println!("analytic  H* ({model}): {exact:.4} bits");
    println!(
        "identification rate: {:.2}%, mean posterior on true sender: {:.4}",
        report.identification_rate * 100.0,
        report.mean_true_sender_prob
    );
    Ok(())
}

fn net_seed_from(flags: &Flags) -> Result<Vec<u8>, String> {
    let net_seed: String = get(flags, "net-seed", "anonroute-net".to_string())?;
    Ok(net_seed.into_bytes())
}

fn authority_client(flags: &Flags) -> Result<AuthorityClient, String> {
    let addr: String = require(flags, "authority")?;
    let addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|e| format!("--authority: `{addr}` is not a socket address ({e})"))?;
    Ok(AuthorityClient::new(addr))
}

/// Resolves the routable directory either from a static `--directory`
/// file or by fetching the current snapshot from `--authority`.
fn directory_from(flags: &Flags) -> Result<(Directory, Vec<u8>), String> {
    let net_seed = net_seed_from(flags)?;
    if flags.contains_key("authority") {
        let client = authority_client(flags)?;
        let receiver = client.receiver().map_err(|e| e.to_string())?;
        let mut view = NetworkView::new(&net_seed, receiver);
        if let Some(snapshot) = client.fetch(0).map_err(|e| e.to_string())? {
            view.merge_snapshot(&snapshot).map_err(|e| e.to_string())?;
        }
        let directory = view.to_directory().map_err(|e| {
            format!(
                "the authority view is not routable yet (members {:?}): {e}",
                view.member_ids()
            )
        })?;
        return Ok((directory, net_seed));
    }
    let path: String = require(flags, "directory")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("--directory {path}: {e}"))?;
    let directory = Directory::parse(&text, &net_seed).map_err(|e| e.to_string())?;
    Ok((directory, net_seed))
}

fn cmd_dird(flags: &Flags) -> Result<(), String> {
    let listen: String = get(flags, "listen", "127.0.0.1:9030".to_string())?;
    let net_seed = net_seed_from(flags)?;
    let receiver: std::net::SocketAddr = require(flags, "receiver")?;
    let lease_ms: u64 = get(flags, "lease-ms", 0)?;
    let lease = (lease_ms > 0).then(|| std::time::Duration::from_millis(lease_ms));
    let server =
        AuthorityServer::spawn(&listen, &net_seed, receiver, lease).map_err(|e| e.to_string())?;
    match lease {
        Some(lease) => println!(
            "directory authority on {} (receiver {receiver}, lease {}ms; ctrl-c to stop)",
            server.addr(),
            lease.as_millis()
        ),
        None => println!(
            "directory authority on {} (receiver {receiver}, no lease expiry; ctrl-c to stop)",
            server.addr()
        ),
    }
    let mut since = 0u64;
    loop {
        std::thread::sleep(std::time::Duration::from_secs(1));
        for ev in server.events_since(since) {
            since = ev.version;
            let kind = match ev.kind {
                MembershipChange::Joined => "joined",
                MembershipChange::Left => "left",
            };
            println!(
                "v{}: relay {} {kind} ({} members)",
                ev.version,
                ev.id,
                server.member_ids().len()
            );
        }
    }
}

/// Serves `/metrics` for a relay daemon when `--metrics-addr` is set.
fn relay_obs(flags: &Flags, relay: &Relay, id: usize) -> Result<Option<ObsServer>, String> {
    let Some(addr) = flags.get("metrics-addr") else {
        return Ok(None);
    };
    let addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|e| format!("--metrics-addr: `{addr}` is not a socket address ({e})"))?;
    relay.register_metrics(Registry::global());
    let health = std::sync::Arc::new(Health::new());
    health.set_ready(true);
    health.set_status(format!("relay {id} serving"));
    let server = ObsServer::serve(addr, Registry::global(), health).map_err(|e| e.to_string())?;
    println!("metrics: http://{}/metrics", server.addr());
    Ok(Some(server))
}

fn cmd_relay(flags: &Flags) -> Result<(), String> {
    let cell_size: usize = get(flags, "cell", DEFAULT_CELL_SIZE)?;
    let seed: u64 = get(flags, "seed", 7)?;

    if flags.contains_key("receiver") {
        // the delivery endpoint comes from the static directory file or,
        // in authority mode, from the authority itself — which answers
        // before any relay has joined, so there the connection cap
        // follows the membership, re-read every few seconds
        let (receiver_addr, max_connections, mut membership) = if flags.contains_key("authority") {
            let client = authority_client(flags)?;
            let addr = client.receiver().map_err(|e| e.to_string())?;
            let view = NetworkView::new(&net_seed_from(flags)?, addr);
            (addr, MAX_CONNECTIONS, Some((client, view)))
        } else {
            let directory = directory_from(flags)?.0;
            (
                directory.receiver(),
                max_connections_for(directory.n()),
                None,
            )
        };
        let server = ReceiverServer::spawn_at(receiver_addr, LinkTap::new(), max_connections)
            .map_err(|e| e.to_string())?;
        println!("receiver listening on {} (ctrl-c to stop)", server.addr());
        let refresh = std::time::Duration::from_secs(2);
        let mut next_refresh = std::time::Instant::now();
        let mut seen = 0usize;
        loop {
            server.wait_for(seen + 1, refresh);
            if let Some((client, view)) = &mut membership {
                if std::time::Instant::now() >= next_refresh {
                    next_refresh = std::time::Instant::now() + refresh;
                    if let Ok(Some(snapshot)) = client.fetch(view.version()) {
                        let _ = view.merge_snapshot(&snapshot);
                        let cap = max_connections_for(view.len()).max(MAX_CONNECTIONS);
                        server.set_max_connections(cap);
                    }
                }
            }
            for d in server.deliveries_since(seen) {
                seen += 1;
                if let Endpoint::Node(from) = d.last_hop {
                    println!(
                        "msg {} via node {from}: {} bytes: {}",
                        d.msg.0,
                        d.payload.len(),
                        String::from_utf8_lossy(&d.payload)
                    );
                }
            }
        }
    }

    if flags.contains_key("authority") {
        return relay_via_authority(flags, cell_size, seed);
    }

    let (directory, net_seed) = directory_from(flags)?;
    let id: usize = require(flags, "id")?;
    let info = directory
        .node(id)
        .ok_or_else(|| format!("--id {id}: not in the directory (n={})", directory.n()))?;
    let identity = NodeIdentity::derive(&net_seed, id as u64);
    let pending = PendingRelay::bind_to(id, identity, info.addr, RelayConfig { cell_size })
        .map_err(|e| e.to_string())?;
    let relay = pending.serve(std::sync::Arc::new(directory), LinkTap::new(), seed);
    println!("relay {id} listening on {} (ctrl-c to stop)", relay.addr());
    let _obs = relay_obs(flags, &relay, id)?;
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// `relay --authority`: join the network by publishing a signed
/// descriptor, learn the topology from the authority plus peer gossip,
/// and serve against the hot-swappable directory.
fn relay_via_authority(flags: &Flags, cell_size: usize, seed: u64) -> Result<(), String> {
    let net_seed = net_seed_from(flags)?;
    let id: usize = require(flags, "id")?;
    let listen: std::net::SocketAddr =
        get(flags, "listen", "127.0.0.1:0".parse().expect("static addr"))?;
    let client = authority_client(flags)?;
    let receiver = client.receiver().map_err(|e| e.to_string())?;

    let identity = NodeIdentity::derive(&net_seed, id as u64);
    let pending = PendingRelay::bind_to(id, identity, listen, RelayConfig { cell_size })
        .map_err(|e| e.to_string())?;
    let addr = pending.addr();

    // join: the descriptor version must beat any tombstone or stale
    // descriptor the authority remembers for this id, and every
    // accepted change bumps the view version, so view+1 always wins
    let version = client.ping().map_err(|e| e.to_string())? + 1;
    let me = RelayDescriptor::derive(&net_seed, id as u64, addr, version).sign(&net_seed);
    client.publish(&me).map_err(|e| e.to_string())?;

    // the onion format routes by dense directory index, so wait until
    // every lower id has joined before serving
    let mut view = NetworkView::new(&net_seed, receiver);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let directory = loop {
        if let Ok(Some(snapshot)) = client.fetch(0) {
            let _ = view.merge_snapshot(&snapshot);
        }
        match view.to_directory() {
            Ok(d) if d.n() > id => break d,
            _ if std::time::Instant::now() > deadline => {
                return Err(format!(
                    "relay {id}: the authority view never became routable \
                     (need dense ids 0..={id}; have members {:?})",
                    view.member_ids()
                ))
            }
            _ => std::thread::sleep(std::time::Duration::from_millis(200)),
        }
    };

    let cell = DirectoryCell::new(directory);
    let view = std::sync::Arc::new(std::sync::Mutex::new(view));
    let relay = pending.serve_dynamic(
        cell.clone(),
        std::sync::Arc::clone(&view),
        LinkTap::new(),
        seed,
    );
    let _gossip = GossipRunner::spawn(me, net_seed, view, cell, Some(client), seed);
    println!(
        "relay {id} listening on {} (topology via authority at {}; ctrl-c to stop)",
        relay.addr(),
        require::<String>(flags, "authority")?
    );
    let _obs = relay_obs(flags, &relay, id)?;
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn cmd_send(flags: &Flags) -> Result<(), String> {
    use rand::SeedableRng;
    let (directory, _net_seed) = directory_from(flags)?;
    let dist = dist_from(flags)?;
    let sender: usize = require(flags, "sender")?;
    if sender >= directory.n() {
        return Err(format!(
            "--sender {sender}: not in the directory (n={})",
            directory.n()
        ));
    }
    let count: usize = get(flags, "count", 1)?;
    let seed: u64 = get(flags, "seed", 7)?;
    let cell_size: usize = get(flags, "cell", DEFAULT_CELL_SIZE)?;
    let payload: String = get(flags, "payload", "hello from anonroute".to_string())?;
    let kind = if flags.contains_key("cyclic") {
        PathKind::Cyclic
    } else {
        PathKind::Simple
    };
    let mut client = Client::new(std::sync::Arc::new(directory), dist, kind, cell_size, None)
        .map_err(|e| e.to_string())?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for i in 0..count {
        let route = client
            .send(sender, MsgId(i as u64), payload.as_bytes(), &mut rng)
            .map_err(|e| e.to_string())?;
        println!("message {i}: sent over a {}-hop circuit", route.len());
    }
    Ok(())
}

/// The grid-axis flags of `campaign`, which a spec file replaces.
const CAMPAIGN_AXES: &[&str] = &[
    "n",
    "c",
    "strategies",
    "paths",
    "engines",
    "epochs",
    "rotation",
    "churn",
];

fn cmd_campaign(flags: &Flags) -> Result<(), String> {
    // a flag campaign does not read would change nothing without a word,
    // so reject it as spec files reject unknown keys
    let mut names: Vec<&String> = flags.keys().collect();
    names.sort();
    for name in names {
        let known = CAMPAIGN_AXES.contains(&name.as_str())
            || ["spec", "out", "timing"].contains(&name.as_str())
            || RUN_SETTINGS.iter().any(|s| s.flag == name);
        if !known {
            return Err(format!("campaign does not take --{name}"));
        }
    }
    let mut config = CampaignConfig::default();
    let (grid, spec_config) = match flags.get("spec") {
        Some(path) => {
            // a spec file owns the grid axes; axis flags alongside it would
            // be silently ignored, so reject the combination outright
            for &axis in CAMPAIGN_AXES {
                if flags.contains_key(axis) {
                    return Err(format!(
                        "--{axis} conflicts with --spec: the spec file defines the grid axes \
                         (run settings like --threads/--seed still override)"
                    ));
                }
            }
            let text = std::fs::read_to_string(path).map_err(|e| format!("--spec {path}: {e}"))?;
            spec::parse_spec(&text, &config)?
        }
        None => {
            let ns: String = require(flags, "n")?;
            let cs: String = require(flags, "c")?;
            let strategies: String = require(flags, "strategies")?;
            let paths: String = get(flags, "paths", String::new())?;
            let engines: String = get(flags, "engines", String::new())?;
            let epochs: String = get(flags, "epochs", String::new())?;
            let rotation: String = get(flags, "rotation", String::new())?;
            let churn: String = get(flags, "churn", String::new())?;
            (
                spec::grid_from_flags(
                    &ns,
                    &cs,
                    &paths,
                    &strategies,
                    &engines,
                    &epochs,
                    &rotation,
                    &churn,
                )?,
                config,
            )
        }
    };
    config = spec_config;
    // explicit flags override spec-file run settings
    for setting in RUN_SETTINGS {
        if let Some(text) = flags.get(setting.flag) {
            setting
                .apply(&mut config, text)
                .map_err(|e| format!("--{}: {e}", setting.flag))?;
        }
    }
    if grid.is_empty() {
        return Err("the grid has no cells (every axis needs at least one value)".into());
    }

    println!(
        "campaign: {} cells ({} n × {} c × {} path × {} strategy × {} engine), {} thread(s)",
        grid.len(),
        grid.ns.len(),
        grid.cs.len(),
        grid.path_kinds.len(),
        grid.strategies.len(),
        grid.engines.len(),
        if config.threads == 0 {
            "auto".to_string()
        } else {
            config.threads.to_string()
        },
    );
    let outcome = anonroute::campaign::run(&grid, &config);

    let include_timing = flags.contains_key("timing");
    let base: PathBuf = match flags.get("out") {
        Some(path) => PathBuf::from(path),
        None => ensure_results_dir()
            .map_err(|e| e.to_string())?
            .join("campaign"),
    };
    // append suffixes to the basename verbatim (no with_extension: a dotted
    // basename like `run.v2` must not collapse onto another run's files)
    let with_suffix = |suffix: &str| -> PathBuf {
        let mut name = base
            .file_name()
            .map(|s| s.to_os_string())
            .unwrap_or_default();
        name.push(suffix);
        base.with_file_name(name)
    };
    let jsonl = with_suffix(".jsonl");
    let csv = with_suffix(".csv");
    let timings = with_suffix("_timings.csv");
    let manifest_path = with_suffix("_manifest.json");
    report::write_jsonl(&jsonl, &outcome, include_timing).map_err(|e| e.to_string())?;
    report::write_csv(&csv, &outcome).map_err(|e| e.to_string())?;
    report::write_timings_csv(&timings, &outcome).map_err(|e| e.to_string())?;
    manifest::write_manifest(&manifest_path, &grid, &config, &outcome)
        .map_err(|e| e.to_string())?;

    print!("{}", report::summary(&outcome));
    println!(
        "results: {} + {} (timings: {}, manifest: {})",
        jsonl.display(),
        csv.display(),
        timings.display(),
        manifest_path.display()
    );
    if let Some(trace) = &config.trace_out {
        println!(
            "trace: {} (open in Perfetto or chrome://tracing)",
            trace.display()
        );
    }
    Ok(())
}

fn cmd_manifest_check(flags: &Flags) -> Result<(), String> {
    let path: String = require(flags, "file")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("--file {path}: {e}"))?;
    manifest::validate_manifest(&text).map_err(|e| format!("{path}: {e}"))?;
    println!("{path}: valid {}", manifest::MANIFEST_SCHEMA);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flag_map(pairs: &[(&str, &str)]) -> Flags {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn dist_spec_parsing() {
        assert_eq!(parse_dist("fixed:5").unwrap(), PathLengthDist::fixed(5));
        assert_eq!(
            parse_dist("uniform:2:8").unwrap(),
            PathLengthDist::uniform(2, 8).unwrap()
        );
        assert!(parse_dist("twopoint:3:0.5:4").is_ok());
        assert!(parse_dist("geometric:0.75:50").is_ok());
        assert!(parse_dist("nope:1").is_err());
        assert!(parse_dist("uniform:9:2").is_err());
        assert!(parse_dist("fixed:x").is_err());
    }

    #[test]
    fn flag_parsing() {
        let args: Vec<String> = ["--n", "100", "--c", "1", "--cyclic"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = parse_flags(&args).unwrap();
        assert_eq!(flags.get("n").unwrap(), "100");
        assert_eq!(flags.get("cyclic").unwrap(), "true");
        assert!(parse_flags(&["--n".to_string()]).is_err());
        assert!(parse_flags(&["n".to_string()]).is_err());
    }

    #[test]
    fn campaign_usage_lists_every_run_setting_flag() {
        let start = USAGE.find("    campaign ").unwrap();
        let end = USAGE.find("    manifest-check").unwrap();
        let campaign = &USAGE[start..end];
        for setting in RUN_SETTINGS {
            let flag = setting.flag;
            assert!(
                campaign.contains(&format!("[--{flag} "))
                    || campaign.contains(&format!("[--{flag}]")),
                "campaign usage does not list --{flag}"
            );
        }
    }

    #[test]
    fn boolean_flags_accept_an_optional_value() {
        // `relay --receiver` (bare) vs `dird --receiver <addr>` (valued)
        let bare: Vec<String> = ["--receiver", "--net-seed", "s"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = parse_flags(&bare).unwrap();
        assert_eq!(flags.get("receiver").unwrap(), "true");
        assert_eq!(flags.get("net-seed").unwrap(), "s");

        let valued: Vec<String> = ["--receiver", "127.0.0.1:9100", "--progress"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = parse_flags(&valued).unwrap();
        assert_eq!(flags.get("receiver").unwrap(), "127.0.0.1:9100");
        assert_eq!(flags.get("progress").unwrap(), "true");
    }

    #[test]
    fn commands_run_end_to_end() {
        let flags = |pairs: &[(&str, &str)]| -> Flags {
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect()
        };
        cmd_analyze(&flags(&[("n", "50"), ("c", "1"), ("dist", "fixed:5")])).unwrap();
        cmd_sweep(&flags(&[
            ("n", "20"),
            ("c", "1"),
            ("from", "0"),
            ("to", "5"),
        ]))
        .unwrap();
        cmd_optimize(&flags(&[
            ("n", "30"),
            ("c", "1"),
            ("mean", "4"),
            ("lmax", "15"),
        ]))
        .unwrap();
        cmd_simulate(&flags(&[
            ("n", "12"),
            ("c", "1"),
            ("dist", "uniform:1:4"),
            ("messages", "200"),
        ]))
        .unwrap();
        cmd_frontier(&flags(&[("n", "25"), ("c", "1"), ("max-mean", "3")])).unwrap();
    }

    #[test]
    fn cluster_runs_end_to_end_over_loopback_tcp() {
        cmd_cluster(&flag_map(&[
            ("n", "8"),
            ("c", "1"),
            ("dist", "uniform:1:3"),
            ("messages", "60"),
            ("payload-len", "8"),
        ]))
        .unwrap();
    }

    #[test]
    fn relay_and_send_validate_their_inputs() {
        // missing / unreadable directory
        assert!(cmd_relay(&flag_map(&[("directory", "/nonexistent.dir"), ("id", "0")])).is_err());
        assert!(cmd_send(&flag_map(&[
            ("directory", "/nonexistent.dir"),
            ("sender", "0"),
            ("dist", "fixed:1"),
        ]))
        .is_err());

        let dir = std::env::temp_dir().join("anonroute-cli-relay-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let dir_file = dir.join("net.dir");
        std::fs::write(
            &dir_file,
            "receiver 127.0.0.1:1\n0 127.0.0.1:2\n1 127.0.0.1:3\n",
        )
        .unwrap();
        let path = dir_file.to_str().unwrap();
        // id outside the directory
        let err = cmd_relay(&flag_map(&[("directory", path), ("id", "9")])).unwrap_err();
        assert!(err.contains("not in the directory"), "{err}");
        // sender outside the directory
        let err = cmd_send(&flag_map(&[
            ("directory", path),
            ("sender", "7"),
            ("dist", "fixed:1"),
        ]))
        .unwrap_err();
        assert!(err.contains("not in the directory"), "{err}");
        // sending without a live network surfaces the socket error
        assert!(cmd_send(&flag_map(&[
            ("directory", path),
            ("sender", "0"),
            ("dist", "fixed:1"),
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn send_delivers_against_an_authority_backed_network() {
        use anonroute::relay::NodeInfo;
        let net_seed = b"anonroute-cli-authority-test";
        let tap = LinkTap::new();
        let receiver =
            ReceiverServer::spawn(tap.clone(), max_connections_for(3)).expect("receiver");
        let pendings: Vec<PendingRelay> = (0..3)
            .map(|id| {
                PendingRelay::bind(
                    id,
                    NodeIdentity::derive(net_seed, id as u64),
                    RelayConfig::default(),
                )
                .expect("bind")
            })
            .collect();
        let nodes: Vec<NodeInfo> = pendings
            .iter()
            .map(|p| NodeInfo {
                id: p.id(),
                addr: p.addr(),
                public: p.public(),
            })
            .collect();
        let directory =
            std::sync::Arc::new(Directory::new(nodes.clone(), receiver.addr()).expect("directory"));
        let _relays: Vec<Relay> = pendings
            .into_iter()
            .map(|p| p.serve(std::sync::Arc::clone(&directory), tap.clone(), 7))
            .collect();

        // publish the same topology at an authority, then send with no
        // static directory file at all
        let authority =
            AuthorityServer::spawn("127.0.0.1:0", net_seed, receiver.addr(), None).expect("spawn");
        let client = AuthorityClient::new(authority.addr());
        for node in &nodes {
            let desc = RelayDescriptor::derive(net_seed, node.id as u64, node.addr, 1);
            client.publish(&desc.sign(net_seed)).expect("publish");
        }
        cmd_send(&flag_map(&[
            ("authority", &authority.addr().to_string()),
            ("net-seed", "anonroute-cli-authority-test"),
            ("sender", "0"),
            ("dist", "fixed:1"),
            ("count", "2"),
        ]))
        .unwrap();
        assert!(
            receiver.wait_for(2, std::time::Duration::from_secs(10)),
            "both onion messages must arrive"
        );

        // an unreachable authority errors cleanly
        let dead = authority.addr().to_string();
        authority.shutdown();
        let err = cmd_send(&flag_map(&[
            ("authority", &dead),
            ("sender", "0"),
            ("dist", "fixed:1"),
        ]))
        .unwrap_err();
        assert!(err.contains("directory authority"), "{err}");
    }

    #[test]
    fn campaign_runs_end_to_end_from_flags() {
        let dir = std::env::temp_dir().join("anonroute-cli-campaign-test");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.join("sweep");
        let flags: Flags = [
            ("n", "20,30"),
            ("c", "1..=2"),
            ("strategies", "fixed:3,uniform:1:5"),
            ("engines", "exact"),
            ("threads", "2"),
            ("out", out.to_str().unwrap()),
        ]
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
        cmd_campaign(&flags).unwrap();
        let jsonl = std::fs::read_to_string(out.with_extension("jsonl")).unwrap();
        assert_eq!(jsonl.lines().count(), 8);
        assert!(jsonl.contains("\"status\":\"ok\""));
        let csv = std::fs::read_to_string(out.with_extension("csv")).unwrap();
        assert_eq!(csv.lines().count(), 9);
        assert!(dir.join("sweep_timings.csv").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn campaign_writes_a_validating_manifest() {
        let dir = std::env::temp_dir().join("anonroute-cli-campaign-manifest-test");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.join("obs");
        let flags = flag_map(&[
            ("n", "15"),
            ("c", "1"),
            ("strategies", "fixed:3,fixed:40"),
            ("metrics-addr", "127.0.0.1:0"),
            ("out", out.to_str().unwrap()),
        ]);
        cmd_campaign(&flags).unwrap();
        let manifest_path = dir.join("obs_manifest.json");
        let text = std::fs::read_to_string(&manifest_path).unwrap();
        assert!(text.contains("anonroute-campaign-manifest/v5"), "{text}");
        assert!(text.contains("\"metrics_addr\": \"127.0.0.1:0\""), "{text}");
        assert!(text.contains("\"ok\": 1"), "{text}");
        assert!(text.contains("\"errors\": 1"), "F(40) infeasible: {text}");
        cmd_manifest_check(&flag_map(&[("file", manifest_path.to_str().unwrap())])).unwrap();
        // a corrupted manifest is rejected
        std::fs::write(&manifest_path, text.replace("\"ok\": 1", "\"ok\": 7")).unwrap();
        let err = cmd_manifest_check(&flag_map(&[("file", manifest_path.to_str().unwrap())]))
            .unwrap_err();
        assert!(err.contains("tally mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn campaign_rejects_bad_metrics_addresses() {
        let flags = flag_map(&[
            ("n", "10"),
            ("c", "1"),
            ("strategies", "fixed:2"),
            ("metrics-addr", "not-an-addr"),
        ]);
        let err = cmd_campaign(&flags).unwrap_err();
        assert!(err.contains("socket address"), "{err}");
    }

    #[test]
    fn campaign_runs_a_live_cell_over_loopback_tcp() {
        let dir = std::env::temp_dir().join("anonroute-cli-campaign-live-test");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.join("live");
        let flags = flag_map(&[
            ("n", "5"),
            ("c", "1"),
            ("strategies", "fixed:1"),
            ("engines", "exact,live"),
            ("live-messages", "40"),
            ("out", out.to_str().unwrap()),
        ]);
        cmd_campaign(&flags).unwrap();
        let jsonl = std::fs::read_to_string(out.with_extension("jsonl")).unwrap();
        assert_eq!(jsonl.lines().count(), 2);
        let live_line = jsonl
            .lines()
            .find(|l| l.contains("\"engine\":\"live\""))
            .expect("live cell rendered");
        assert!(live_line.contains("\"status\":\"ok\""), "{live_line}");
        assert!(live_line.contains("\"samples\":40"), "{live_line}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn campaign_runs_a_multi_epoch_grid_from_flags() {
        let dir = std::env::temp_dir().join("anonroute-cli-campaign-epochs-test");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.join("decay");
        let flags = flag_map(&[
            ("n", "12"),
            ("c", "1"),
            ("strategies", "uniform:1:2"),
            ("engines", "exact,mc"),
            ("epochs", "1,3"),
            ("churn", "none,iid:0.2"),
            ("mc-samples", "2000"),
            ("out", out.to_str().unwrap()),
        ]);
        cmd_campaign(&flags).unwrap();
        let jsonl = std::fs::read_to_string(out.with_extension("jsonl")).unwrap();
        assert_eq!(jsonl.lines().count(), 8, "2 engines x 2 epochs x 2 churns");
        assert!(jsonl.contains("\"dynamics\":\"epochs=3;churn=iid:0.2\""));
        assert!(jsonl.contains("\"epochs\":3"));
        assert!(jsonl.contains("\"h_epoch1\":"));
        assert!(!jsonl.contains("\"status\":\"error\""), "{jsonl}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn campaign_runs_from_a_spec_file() {
        let dir = std::env::temp_dir().join("anonroute-cli-campaign-spec-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("grid.toml");
        std::fs::write(
            &spec_path,
            "[grid]\nn = [15]\nc = 1\nstrategies = [\"fixed:2\", \"fixed:40\"]\n\n[run]\nthreads = 1\n",
        )
        .unwrap();
        let out = dir.join("fromspec");
        let flags: Flags = [
            ("spec", spec_path.to_str().unwrap()),
            ("out", out.to_str().unwrap()),
        ]
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
        cmd_campaign(&flags).unwrap();
        let jsonl = std::fs::read_to_string(out.with_extension("jsonl")).unwrap();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(
            jsonl.contains("\"status\":\"error\""),
            "F(40) is infeasible at n=15"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn campaign_rejects_bad_grids() {
        let flags = |pairs: &[(&str, &str)]| -> Flags {
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect()
        };
        // missing axes
        assert!(cmd_campaign(&flags(&[("n", "10")])).is_err());
        // bad list
        assert!(
            cmd_campaign(&flags(&[("n", "x"), ("c", "1"), ("strategies", "fixed:1")])).is_err()
        );
        // bad strategy
        assert!(
            cmd_campaign(&flags(&[("n", "10"), ("c", "1"), ("strategies", "warp:9")])).is_err()
        );
        // missing spec file
        assert!(cmd_campaign(&flags(&[("spec", "/nonexistent/grid.toml")])).is_err());
        // axis flags conflict with --spec instead of being silently ignored
        let err =
            cmd_campaign(&flags(&[("spec", "/nonexistent/grid.toml"), ("n", "500")])).unwrap_err();
        assert!(err.contains("--n conflicts with --spec"), "{err}");
    }

    #[test]
    fn campaign_rejects_flags_it_does_not_take() {
        let args = |extra: &[&str]| -> Vec<String> {
            [
                "campaign",
                "--n",
                "4",
                "--c",
                "1",
                "--strategies",
                "fixed:1",
            ]
            .iter()
            .chain(extra)
            .map(|s| s.to_string())
            .collect()
        };
        let err = run(&args(&["--bogus", "1"])).unwrap_err();
        assert_eq!(err, "campaign does not take --bogus");
        // the watchdog's timeout flag is gone and must not pass silently
        let err = run(&args(&["--live-timeout", "5"])).unwrap_err();
        assert_eq!(err, "campaign does not take --live-timeout");
    }

    #[test]
    fn campaign_out_basename_keeps_dots() {
        let dir = std::env::temp_dir().join("anonroute-cli-campaign-dotted-test");
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.join("run.v2");
        let flags: Flags = [
            ("n", "10"),
            ("c", "1"),
            ("strategies", "fixed:2"),
            ("out", out.to_str().unwrap()),
        ]
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
        cmd_campaign(&flags).unwrap();
        assert!(
            dir.join("run.v2.jsonl").exists(),
            "dotted basename preserved"
        );
        assert!(dir.join("run.v2.csv").exists());
        assert!(dir.join("run.v2_timings.csv").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_inputs_error_cleanly() {
        let flags = |pairs: &[(&str, &str)]| -> Flags {
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect()
        };
        assert!(cmd_analyze(&flags(&[("n", "50")])).is_err()); // missing --c / --dist
        assert!(cmd_analyze(&flags(&[("n", "5"), ("c", "9"), ("dist", "fixed:1")])).is_err());
        assert!(cmd_sweep(&flags(&[
            ("n", "20"),
            ("c", "1"),
            ("from", "9"),
            ("to", "2")
        ]))
        .is_err());
        assert!(run(&["bogus".to_string()]).is_err());
    }
}
