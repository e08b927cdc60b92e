//! Timing wrappers around the attestation verifiers the program accepts
//! through its public traits. They time each call from outside and open
//! a span for it; the verification itself is the wrapped object's.

use crate::trace::tracer;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;
use vnfguard::attest::{AttestError, AttestationBackend, BackendKind, EvidenceAppraisal};
use vnfguard::ias::{AttestationReport, Availability, QuoteVerifier};
use vnfguard::telemetry::TraceContext;

/// Durations of the wrapped calls, in milliseconds, shared with the
/// thread that reads them.
pub type Timings = Arc<Mutex<Vec<f64>>>;

/// A [`QuoteVerifier`] that times every `verify_quote`.
pub struct TimedVerifier<V> {
    inner: V,
    timings: Timings,
}

impl<V> TimedVerifier<V> {
    pub fn new(inner: V) -> (TimedVerifier<V>, Timings) {
        let timings = Timings::default();
        (
            TimedVerifier {
                inner,
                timings: timings.clone(),
            },
            timings,
        )
    }
}

impl<V: QuoteVerifier> QuoteVerifier for TimedVerifier<V> {
    fn verify_quote(&mut self, quote_bytes: &[u8], nonce: &[u8]) -> AttestationReport {
        let _span = tracer().ambient_span("ias.verify_quote");
        let start = Instant::now();
        let report = self.inner.verify_quote(quote_bytes, nonce);
        self.timings
            .lock()
            .push(start.elapsed().as_secs_f64() * 1e3);
        report
    }

    fn report_signing_key(&self) -> vnfguard::crypto::ed25519::VerifyingKey {
        self.inner.report_signing_key()
    }

    fn availability(&self) -> Availability {
        self.inner.availability()
    }

    fn set_trace_context(&mut self, ctx: Option<TraceContext>) {
        self.inner.set_trace_context(ctx)
    }
}

/// An [`AttestationBackend`] that times every `appraise`.
pub struct TimedBackend<B> {
    inner: B,
    timings: Timings,
}

impl<B> TimedBackend<B> {
    pub fn new(inner: B) -> (TimedBackend<B>, Timings) {
        let timings = Timings::default();
        (
            TimedBackend {
                inner,
                timings: timings.clone(),
            },
            timings,
        )
    }
}

impl<B: AttestationBackend> AttestationBackend for TimedBackend<B> {
    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }

    fn appraise(
        &mut self,
        evidence: &[u8],
        nonce: &[u8],
    ) -> Result<EvidenceAppraisal, AttestError> {
        let _span = tracer().ambient_span("attest.appraise");
        let start = Instant::now();
        let appraisal = self.inner.appraise(evidence, nonce);
        self.timings
            .lock()
            .push(start.elapsed().as_secs_f64() * 1e3);
        appraisal
    }

    fn availability(&self) -> Availability {
        self.inner.availability()
    }

    fn set_trace_context(&mut self, ctx: Option<TraceContext>) {
        self.inner.set_trace_context(ctx)
    }
}
