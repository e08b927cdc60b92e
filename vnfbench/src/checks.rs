//! Correctness checks on the program's outputs. Each check is a pure
//! function over values the workloads collected, so each can be shown to
//! reject a wrong input (the negative controls in the tests below).

use std::collections::{BTreeMap, BTreeSet};
use vnfguard::attest::BackendKind;
use vnfguard::controller::FlowSpec;
use vnfguard::crypto::ed25519::VerifyingKey;
use vnfguard::pki::Crl;
use vnfguard::vnf::credential_enclave::EnclaveStatus;

pub type Check = Result<(), String>;

/// Every enrollment response names the VNF it was asked for.
pub fn responses_name_requested(pairs: &[(String, String)]) -> Check {
    match pairs.iter().find(|(asked, named)| asked != named) {
        Some((asked, named)) => Err(format!("asked to enroll {asked}, response names {named}")),
        None => Ok(()),
    }
}

/// No serial was handed out twice.
pub fn serials_unique(serials: &[u64]) -> Check {
    let mut seen = BTreeSet::new();
    match serials.iter().find(|s| !seen.insert(**s)) {
        Some(s) => Err(format!("serial {s} issued twice")),
        None => Ok(()),
    }
}

/// The enclave reports itself provisioned with the expected credential.
pub fn enclave_holds(status: &EnclaveStatus, subject: &str, serial: u64) -> Check {
    if status.provisioned && status.subject == subject && status.serial == serial {
        Ok(())
    } else {
        Err(format!(
            "enclave of {subject} reports provisioned={} subject={} serial={}, expected serial {serial}",
            status.provisioned, status.subject, status.serial
        ))
    }
}

/// Every manager record carries the attestation backend of its host.
pub fn records_carry_host_backend(
    records: &[(u64, String, BackendKind)],
    host_backend: &BTreeMap<String, BackendKind>,
) -> Check {
    for (serial, host, backend) in records {
        match host_backend.get(host) {
            Some(expected) if expected == backend => {}
            other => {
                return Err(format!(
                    "record {serial} on {host} carries {backend:?}, host is {other:?}"
                ))
            }
        }
    }
    Ok(())
}

/// The manager's issuance counter equals what the benchmark counted.
pub fn issued_count(issued: u64, expected: u64) -> Check {
    if issued == expected {
        Ok(())
    } else {
        Err(format!(
            "issued_count {issued}, benchmark counted {expected}"
        ))
    }
}

/// Every serial lies in the serial span of the shard that issued it.
pub fn serials_in_span(serials: &[(u64, u32)], shard_of_serial: impl Fn(u64) -> u32) -> Check {
    match serials
        .iter()
        .find(|(s, shard)| shard_of_serial(*s) != *shard)
    {
        Some((s, shard)) => Err(format!("serial {s} outside shard {shard}'s span")),
        None => Ok(()),
    }
}

/// The CRL verifies under the CA key, lists every revoked serial and no
/// other serial (in particular no live one).
pub fn crl_exact(
    crl: &Crl,
    ca_key: &VerifyingKey,
    revoked: &BTreeSet<u64>,
    live: &BTreeSet<u64>,
) -> Check {
    crl.verify(ca_key)
        .map_err(|e| format!("CRL does not verify under the CA key: {e}"))?;
    let listed: BTreeSet<u64> = crl.entries().map(|e| e.serial).collect();
    if let Some(missing) = revoked.difference(&listed).next() {
        return Err(format!("revoked serial {missing} missing from the CRL"));
    }
    if let Some(live) = listed.intersection(live).next() {
        return Err(format!("live serial {live} listed on the CRL"));
    }
    if let Some(extra) = listed.difference(revoked).next() {
        return Err(format!("CRL lists serial {extra}, which was never revoked"));
    }
    Ok(())
}

/// A listed flow table equals the flows generated for that session,
/// field for field.
pub fn flow_table_equals(generated: &[FlowSpec], listed: &[FlowSpec]) -> Check {
    let mut want = generated.to_vec();
    let mut got = listed.to_vec();
    want.sort_by(|a, b| a.name.cmp(&b.name));
    got.sort_by(|a, b| a.name.cmp(&b.name));
    if want.len() != got.len() {
        return Err(format!(
            "table lists {} flows, session pushed {}",
            got.len(),
            want.len()
        ));
    }
    match want.iter().zip(&got).find(|(w, g)| w != g) {
        Some((w, g)) => Err(format!("pushed {w:?}, listed {g:?}")),
        None => Ok(()),
    }
}

/// The audit log attributes to each subject exactly the mutating
/// requests sent under its credential, and nothing to anyone else.
/// `audit` holds (peer, action) pairs; `sent` counts per (subject, action).
pub fn audit_attribution(
    audit: &[(String, String)],
    sent: &BTreeMap<(String, String), u64>,
) -> Check {
    let mut seen: BTreeMap<(String, String), u64> = BTreeMap::new();
    for (peer, action) in audit {
        *seen.entry((peer.clone(), action.clone())).or_default() += 1;
    }
    if &seen == sent {
        return Ok(());
    }
    let keys: BTreeSet<_> = seen.keys().chain(sent.keys()).collect();
    for key in keys {
        let (a, b) = (
            seen.get(key).copied().unwrap_or(0),
            sent.get(key).copied().unwrap_or(0),
        );
        if a != b {
            return Err(format!(
                "audit attributes {a} {} to {}, benchmark sent {b}",
                key.1, key.0
            ));
        }
    }
    unreachable!("maps differ in some key")
}

/// Sessions with revoked credentials were all refused, the controller
/// counted exactly those refusals, and every live credential got in.
pub fn revoked_sessions_refused(
    revoked_attempts: usize,
    revoked_refused: usize,
    failures_delta: u64,
    live_attempts: usize,
    live_opened: usize,
) -> Check {
    if revoked_refused != revoked_attempts {
        return Err(format!(
            "{} of {revoked_attempts} revoked credentials opened a session",
            revoked_attempts - revoked_refused
        ));
    }
    if failures_delta != revoked_attempts as u64 {
        return Err(format!(
            "handshake_failures rose by {failures_delta}, expected {revoked_attempts}"
        ));
    }
    if live_opened != live_attempts {
        return Err(format!(
            "{live_opened} of {live_attempts} live credentials opened a session"
        ));
    }
    Ok(())
}

/// The comparable state of a manager fleet: CA, counters and every
/// shard's enrollment records in shard order.
#[derive(Debug, PartialEq, Eq)]
pub struct FleetView {
    pub ca: Vec<u8>,
    pub epoch: u64,
    pub issued: u64,
    pub crl_number: u64,
    pub records: Vec<(u64, String, String, bool)>,
    pub pending: Vec<u64>,
}

impl FleetView {
    pub fn of(vm: &vnfguard::core::service::VmService) -> FleetView {
        FleetView {
            ca: vm.ca_certificate().encode(),
            epoch: vm.ca_epoch(),
            issued: vm.issued_count(),
            crl_number: vm.lifecycle_status().crl_number,
            records: vm
                .enrollments()
                .map(|e| (e.serial, e.vnf_name.clone(), e.host_id.clone(), e.revoked))
                .collect(),
            pending: vm.pending_enrollments().map(|p| p.serial).collect(),
        }
    }
}

/// Oracle twins replayed from the WALs equal the live fleet.
pub fn fleet_matches(oracle: &FleetView, live: &FleetView) -> Check {
    if oracle == live {
        return Ok(());
    }
    if oracle.records != live.records {
        let diff = oracle
            .records
            .iter()
            .zip(&live.records)
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("oracle {a:?} vs live {b:?}"))
            .unwrap_or_else(|| {
                format!("{} vs {} records", oracle.records.len(), live.records.len())
            });
        return Err(format!("replayed WAL diverges from the live fleet: {diff}"));
    }
    Err(format!(
        "replayed WAL diverges from the live fleet: issued {}/{} crl {}/{} epoch {}/{} pending {}/{}",
        oracle.issued,
        live.issued,
        oracle.crl_number,
        live.crl_number,
        oracle.epoch,
        live.epoch,
        oracle.pending.len(),
        live.pending.len()
    ))
}

/// A published test vector matched.
pub fn vector(name: &str, got: &[u8], want: &[u8]) -> Check {
    if got == want {
        Ok(())
    } else {
        Err(format!("{name}: output differs from the published vector"))
    }
}

/// Decode a hex constant.
pub fn hex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("constant is hex"))
        .collect()
}

#[cfg(test)]
mod tests {
    //! Negative controls: each check accepts a right input and rejects
    //! one made wrong in a single place.
    use super::*;
    use vnfguard::controller::FlowSpec;
    use vnfguard::crypto::ed25519::SigningKey;
    use vnfguard::dataplane::{FlowAction, FlowMatch};
    use vnfguard::pki::crl::{CrlEntry, RevocationReason};
    use vnfguard::pki::DistinguishedName;

    fn names(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn response_names() {
        assert!(responses_name_requested(&names(&[("a", "a"), ("b", "b")])).is_ok());
        assert!(responses_name_requested(&names(&[("a", "a"), ("b", "a")])).is_err());
    }

    #[test]
    fn unique_serials() {
        assert!(serials_unique(&[2, 3, 4]).is_ok());
        assert!(serials_unique(&[2, 3, 2]).is_err());
    }

    #[test]
    fn enclave_status() {
        let status = EnclaveStatus {
            provisioned: true,
            subject: "vnf-a".into(),
            serial: 7,
        };
        assert!(enclave_holds(&status, "vnf-a", 7).is_ok());
        assert!(enclave_holds(&status, "vnf-a", 8).is_err());
        assert!(enclave_holds(&status, "vnf-b", 7).is_err());
        let empty = EnclaveStatus {
            provisioned: false,
            ..status
        };
        assert!(enclave_holds(&empty, "vnf-a", 7).is_err());
    }

    #[test]
    fn host_backends() {
        let hosts: BTreeMap<String, BackendKind> = [
            ("host-0".to_string(), BackendKind::SgxEpid),
            ("host-1".to_string(), BackendKind::SevSnp),
        ]
        .into();
        let good = vec![
            (2, "host-0".to_string(), BackendKind::SgxEpid),
            (3, "host-1".to_string(), BackendKind::SevSnp),
        ];
        assert!(records_carry_host_backend(&good, &hosts).is_ok());
        let mut bad = good.clone();
        bad[1].2 = BackendKind::SgxEpid;
        assert!(records_carry_host_backend(&bad, &hosts).is_err());
    }

    #[test]
    fn issued() {
        assert!(issued_count(11, 11).is_ok());
        assert!(issued_count(12, 11).is_err());
    }

    #[test]
    fn serial_spans() {
        let span = |s: u64| (s >> 40) as u32;
        assert!(serials_in_span(&[(5, 0), ((1 << 40) + 5, 1)], span).is_ok());
        assert!(serials_in_span(&[(5, 0), (6, 1)], span).is_err());
    }

    fn crl_over(serials: &[u64], key: &SigningKey) -> Crl {
        Crl::build(
            DistinguishedName::new("ca"),
            100,
            200,
            1,
            serials.iter().map(|&serial| CrlEntry {
                serial,
                revoked_at: 100,
                reason: RevocationReason::KeyCompromise,
            }),
            key,
        )
    }

    #[test]
    fn crl_lists_exactly_the_revoked() {
        let key = SigningKey::from_seed(&[7; 32]);
        let revoked: BTreeSet<u64> = [3, 5, 9].into();
        let live: BTreeSet<u64> = [4, 6].into();
        let good = crl_over(&[3, 5, 9], &key);
        assert!(crl_exact(&good, &key.public_key(), &revoked, &live).is_ok());
        // One revoked serial removed.
        let missing = crl_over(&[3, 9], &key);
        assert!(crl_exact(&missing, &key.public_key(), &revoked, &live).is_err());
        // A live serial listed.
        let live_listed = crl_over(&[3, 4, 5, 9], &key);
        assert!(crl_exact(&live_listed, &key.public_key(), &revoked, &live).is_err());
        // Signed by another key.
        let other = SigningKey::from_seed(&[8; 32]);
        assert!(crl_exact(&good, &other.public_key(), &revoked, &live).is_err());
    }

    fn flow(name: &str, port: u16) -> FlowSpec {
        FlowSpec {
            name: name.into(),
            dpid: 0x0a,
            priority: 10,
            matcher: FlowMatch::any(),
            actions: vec![FlowAction::Output(port)],
        }
    }

    #[test]
    fn flow_tables() {
        let pushed = vec![flow("f1", 1), flow("f2", 2)];
        let listed = vec![flow("f2", 2), flow("f1", 1)];
        assert!(flow_table_equals(&pushed, &listed).is_ok());
        // One extra entry.
        let mut extra = listed.clone();
        extra.push(flow("f3", 3));
        assert!(flow_table_equals(&pushed, &extra).is_err());
        // One field differs.
        let changed = vec![flow("f2", 2), flow("f1", 9)];
        assert!(flow_table_equals(&pushed, &changed).is_err());
        // Deletes must empty the table.
        assert!(flow_table_equals(&[], &[]).is_ok());
        assert!(flow_table_equals(&[], &[flow("f1", 1)]).is_err());
    }

    #[test]
    fn audit() {
        let audit = names(&[
            ("vnf-a", "push_flow"),
            ("vnf-a", "delete_flow"),
            ("vnf-b", "push_flow"),
        ]);
        let mut sent: BTreeMap<(String, String), u64> = BTreeMap::new();
        sent.insert(("vnf-a".into(), "push_flow".into()), 1);
        sent.insert(("vnf-a".into(), "delete_flow".into()), 1);
        sent.insert(("vnf-b".into(), "push_flow".into()), 1);
        assert!(audit_attribution(&audit, &sent).is_ok());
        // A request attributed to the wrong subject.
        let wrong = names(&[
            ("vnf-a", "push_flow"),
            ("vnf-a", "delete_flow"),
            ("vnf-a", "push_flow"),
        ]);
        assert!(audit_attribution(&wrong, &sent).is_err());
        // A request the benchmark never sent.
        let mut more = audit.clone();
        more.push(("anonymous".into(), "push_flow".into()));
        assert!(audit_attribution(&more, &sent).is_err());
    }

    #[test]
    fn revoked_sessions() {
        assert!(revoked_sessions_refused(2, 2, 2, 3, 3).is_ok());
        assert!(revoked_sessions_refused(2, 1, 1, 3, 3).is_err());
        assert!(revoked_sessions_refused(2, 2, 3, 3, 3).is_err());
        assert!(revoked_sessions_refused(2, 2, 2, 3, 2).is_err());
    }

    #[test]
    fn fleets() {
        let view = || FleetView {
            ca: vec![1, 2],
            epoch: 0,
            issued: 3,
            crl_number: 1,
            records: vec![(2, "a".into(), "host-0".into(), false)],
            pending: vec![],
        };
        assert!(fleet_matches(&view(), &view()).is_ok());
        let mut flipped = view();
        flipped.records[0].3 = true;
        assert!(fleet_matches(&view(), &flipped).is_err());
        let mut counted = view();
        counted.issued += 1;
        assert!(fleet_matches(&view(), &counted).is_err());
    }

    #[test]
    fn vectors() {
        assert!(vector("x", &hex("0aff"), &[0x0a, 0xff]).is_ok());
        assert!(vector("x", &hex("0aff"), &[0x0a, 0xfe]).is_err());
    }
}
