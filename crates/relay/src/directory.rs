//! The network directory: where each member listens and its public key.
//!
//! Deployed onion systems publish a signed directory of router addresses
//! and long-term public keys; senders build circuits against it. Here the
//! directory is a plain value: the cluster harness constructs it from its
//! bound listeners, and the CLI parses it from a small text format in
//! which identities are derived from a shared *net seed* (the same
//! deterministic provisioning [`NodeIdentity::derive`] the rest of the
//! workspace uses for reproducible deployments).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, RwLock};

use anonroute_crypto::handshake::NodeIdentity;
use anonroute_sim::NodeId;

use crate::error::{Error, Result};

/// One member's directory entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInfo {
    /// Member id, `0..n`.
    pub id: NodeId,
    /// TCP address the member's relay listens on.
    pub addr: SocketAddr,
    /// Static X25519 public key for the circuit handshake.
    pub public: [u8; 32],
}

/// The full network map: all member relays plus the receiver endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directory {
    nodes: Vec<NodeInfo>,
    receiver: SocketAddr,
}

impl Directory {
    /// Builds a directory; entries must be dense (`nodes[i].id == i`).
    ///
    /// # Errors
    ///
    /// [`Error::Config`] when ids are out of order, the directory is
    /// empty, or too large for the 16-bit next-hop field.
    pub fn new(nodes: Vec<NodeInfo>, receiver: SocketAddr) -> Result<Self> {
        check_ids(nodes.iter().map(|node| node.id))?;
        Ok(Directory { nodes, receiver })
    }

    /// Number of member relays.
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// The entry for member `id`, if it exists.
    pub fn node(&self, id: NodeId) -> Option<&NodeInfo> {
        self.nodes.get(id)
    }

    /// All entries, ordered by id.
    pub fn nodes(&self) -> &[NodeInfo] {
        &self.nodes
    }

    /// Where the receiver (destination server) listens.
    pub fn receiver(&self) -> SocketAddr {
        self.receiver
    }

    /// Parses the CLI text format, deriving public keys from `net_seed`:
    ///
    /// ```text
    /// receiver 127.0.0.1:9000
    /// 0 127.0.0.1:9001
    /// 1 127.0.0.1:9002
    /// ```
    ///
    /// Blank lines and `#` comments are ignored. Every relay daemon and
    /// sender sharing the same net seed derives the same identities, so
    /// the file only needs addresses.
    ///
    /// Relay ids must appear **in ascending dense order** (`0, 1, 2,
    /// …`) and every address (including the receiver's) must be
    /// unique: a shuffled, duplicated, or recycled line is almost
    /// always a hand-editing mistake, and silently reordering used to
    /// defer it to a confusing downstream failure.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] with the offending line number(s) on malformed
    /// lines, duplicate or out-of-order ids, duplicate addresses, a
    /// missing or repeated receiver, or sparse ids.
    pub fn parse(text: &str, net_seed: &[u8]) -> Result<Self> {
        let mut receiver: Option<(SocketAddr, usize)> = None;
        let mut entries: Vec<(usize, SocketAddr)> = Vec::new();
        let mut seen_ids: HashMap<usize, usize> = HashMap::new();
        let mut seen_addrs: HashMap<SocketAddr, usize> = HashMap::new();
        let mut last: Option<(usize, usize)> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let lineno = lineno + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (who, addr) = (parts.next(), parts.next());
            let (Some(who), Some(addr), None) = (who, addr, parts.next()) else {
                return Err(Error::Config(format!(
                    "directory line {lineno}: expected `<id|receiver> <host:port>`, got `{line}`"
                )));
            };
            let addr: SocketAddr = addr.parse().map_err(|_| {
                Error::Config(format!("directory line {lineno}: bad address `{addr}`"))
            })?;
            if let Some(&first) = seen_addrs.get(&addr) {
                return Err(Error::Config(format!(
                    "directory line {lineno}: duplicate address {addr} (first used on line {first})"
                )));
            }
            seen_addrs.insert(addr, lineno);
            if who == "receiver" {
                if let Some((_, first)) = receiver.replace((addr, lineno)) {
                    return Err(Error::Config(format!(
                        "directory line {lineno}: duplicate receiver line (first on line {first})"
                    )));
                }
            } else {
                let id: usize = who.parse().map_err(|_| {
                    Error::Config(format!("directory line {lineno}: bad id `{who}`"))
                })?;
                if let Some(&first) = seen_ids.get(&id) {
                    return Err(Error::Config(format!(
                        "directory line {lineno}: duplicate id {id} (first declared on line {first})"
                    )));
                }
                if let Some((prev_id, prev_line)) = last {
                    if id < prev_id {
                        return Err(Error::Config(format!(
                            "directory line {lineno}: id {id} out of order (after id {prev_id} on line {prev_line}; ids must ascend 0, 1, 2, …)"
                        )));
                    }
                }
                seen_ids.insert(id, lineno);
                last = Some((id, lineno));
                entries.push((id, addr));
            }
        }
        let receiver = receiver
            .ok_or_else(|| Error::Config("directory has no receiver line".into()))?
            .0;
        // reject before deriving: an identity costs an HKDF and a
        // scalar multiplication, so an oversized or sparse directory
        // would otherwise pay one per line just to be refused
        check_ids(entries.iter().map(|&(id, _)| id))?;
        let nodes = entries
            .into_iter()
            .map(|(id, addr)| NodeInfo {
                id,
                addr,
                public: *NodeIdentity::derive(net_seed, id as u64).public(),
            })
            .collect();
        Ok(Directory { nodes, receiver })
    }
}

/// Checks a directory's ids, in entry order: at least one relay, few
/// enough for the 16-bit next-hop field, and dense (entry `i` has id `i`).
fn check_ids(ids: impl ExactSizeIterator<Item = usize>) -> Result<()> {
    let len = ids.len();
    if len == 0 {
        return Err(Error::Config("a directory needs at least one relay".into()));
    }
    // the onion next-hop field is u16 with u16::MAX reserved for DELIVER
    if len >= u16::MAX as usize {
        return Err(Error::Config(format!(
            "{len} relays exceed the 16-bit id space"
        )));
    }
    for (i, id) in ids.enumerate() {
        if id != i {
            return Err(Error::Config(format!(
                "directory entry {i} has id {id} (entries must be dense and ordered)"
            )));
        }
    }
    Ok(())
}

/// A hot-swappable handle to the current [`Directory`].
///
/// Relay daemons serving a gossiped topology read the directory through
/// this cell on every cell they forward; the gossip layer stores a new
/// `Directory` whenever a merged snapshot changes the (dense) member
/// set. Readers get an `Arc` snapshot, so a swap never blocks or tears
/// an in-flight forward. When churn makes the view sparse (a mid-range
/// relay died), the cell intentionally keeps the last dense directory:
/// onion next-hop fields are directory indices, and circuits built
/// before the departure must still resolve addresses — dials to the
/// dead relay fail and are counted, which is exactly the signal the
/// peer-health layer feeds back to the authority.
#[derive(Debug, Clone)]
pub struct DirectoryCell {
    inner: Arc<RwLock<Arc<Directory>>>,
}

impl DirectoryCell {
    /// A cell initially serving `directory`.
    pub fn new(directory: Directory) -> DirectoryCell {
        DirectoryCell {
            inner: Arc::new(RwLock::new(Arc::new(directory))),
        }
    }

    /// The current directory snapshot.
    pub fn load(&self) -> Arc<Directory> {
        Arc::clone(&self.inner.read().expect("directory cell"))
    }

    /// Atomically replaces the directory.
    pub fn store(&self, directory: Directory) {
        *self.inner.write().expect("directory cell") = Arc::new(directory);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    #[test]
    fn parse_roundtrips_with_derived_identities() {
        let text = "\
# test net
receiver 127.0.0.1:9000

0 127.0.0.1:9001
1 127.0.0.1:9002
";
        let dir = Directory::parse(text, b"seed").unwrap();
        assert_eq!(dir.n(), 2);
        assert_eq!(dir.receiver(), addr(9000));
        assert_eq!(dir.node(0).unwrap().addr, addr(9001));
        assert_eq!(dir.node(1).unwrap().addr, addr(9002));
        assert_eq!(
            dir.node(1).unwrap().public,
            *NodeIdentity::derive(b"seed", 1).public()
        );
        assert!(dir.node(2).is_none());
    }

    /// Extracts the `Error::Config` message or panics.
    fn config_err(text: &str) -> String {
        match Directory::parse(text, b"s") {
            Err(Error::Config(msg)) => msg,
            other => panic!("expected Error::Config, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_duplicate_ids_with_both_line_numbers() {
        let msg = config_err("receiver 127.0.0.1:1\n0 127.0.0.1:2\n0 127.0.0.1:3");
        assert!(msg.contains("line 3"), "got: {msg}");
        assert!(msg.contains("duplicate id 0"), "got: {msg}");
        assert!(msg.contains("line 2"), "got: {msg}");
    }

    #[test]
    fn parse_rejects_out_of_order_ids_with_line_numbers() {
        let msg = config_err("receiver 127.0.0.1:1\n1 127.0.0.1:2\n0 127.0.0.1:3");
        assert!(msg.contains("line 3"), "got: {msg}");
        assert!(msg.contains("out of order"), "got: {msg}");
        assert!(msg.contains("line 2"), "got: {msg}");
    }

    #[test]
    fn parse_rejects_duplicate_addresses_with_both_line_numbers() {
        let msg = config_err("receiver 127.0.0.1:1\n0 127.0.0.1:2\n1 127.0.0.1:2");
        assert!(msg.contains("line 3"), "got: {msg}");
        assert!(msg.contains("duplicate address 127.0.0.1:2"), "got: {msg}");
        assert!(msg.contains("line 2"), "got: {msg}");

        // the receiver's address is part of the uniqueness domain too
        let msg = config_err("receiver 127.0.0.1:1\n0 127.0.0.1:1");
        assert!(msg.contains("line 2"), "got: {msg}");
        assert!(msg.contains("duplicate address"), "got: {msg}");
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Directory::parse("0 127.0.0.1:1", b"s").is_err()); // no receiver
        assert!(Directory::parse("receiver 127.0.0.1:1\nx y z", b"s").is_err());
        assert!(Directory::parse("receiver 127.0.0.1:1\nzero 127.0.0.1:2", b"s").is_err());
        assert!(Directory::parse("receiver 127.0.0.1:1\n0 nowhere", b"s").is_err());
        assert!(Directory::parse(
            "receiver 127.0.0.1:1\nreceiver 127.0.0.1:2\n0 127.0.0.1:3",
            b"s"
        )
        .is_err());
        // sparse ids
        assert!(
            Directory::parse("receiver 127.0.0.1:1\n0 127.0.0.1:2\n2 127.0.0.1:3", b"s").is_err()
        );
        // empty
        assert!(Directory::parse("receiver 127.0.0.1:1", b"s").is_err());
    }

    /// Oversized and sparse directories are refused with the same
    /// messages [`Directory::new`] gives, before any identity is derived.
    #[test]
    fn parse_rejects_oversized_and_sparse_directories_before_deriving() {
        let mut text = String::from("receiver 10.255.255.255:1\n");
        for id in 0..70_000usize {
            let [_, a, b, c] = (id as u32).to_be_bytes();
            text.push_str(&format!("{id} 10.{a}.{b}.{c}:9000\n"));
        }
        assert_eq!(config_err(&text), "70000 relays exceed the 16-bit id space");
        assert_eq!(
            config_err("receiver 127.0.0.1:1\n0 127.0.0.1:2\n2 127.0.0.1:3"),
            "directory entry 1 has id 2 (entries must be dense and ordered)"
        );
    }

    #[test]
    fn construction_validates_density() {
        let info = |id| NodeInfo {
            id,
            addr: addr(9100 + id as u16),
            public: [0u8; 32],
        };
        assert!(Directory::new(vec![info(0), info(1)], addr(9000)).is_ok());
        assert!(Directory::new(vec![info(1), info(0)], addr(9000)).is_err());
        assert!(Directory::new(vec![], addr(9000)).is_err());
    }
}
