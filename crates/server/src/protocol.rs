//! The tl-wire/1 protocol: length-prefixed, checksummed binary frames.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! | u32 LE body-len | body bytes | u64 LE FNV-1a(body) |
//! ```
//!
//! The trailing checksum mirrors the summary file format's corruption
//! stance: a flipped bit anywhere in the body surfaces as a typed
//! [`Fault`] ([`FaultKind::Parse`]) at the decoder, never as a wrong
//! answer or an untyped I/O error. Body length is capped at
//! [`MAX_FRAME_LEN`] so a garbage length prefix cannot drive an
//! allocation.
//!
//! Inside the body, the first byte of a request is the operation code
//! ([`Request`]); the first byte of a response is the status byte, which
//! is *literally* the process exit code from the one shared table
//! ([`tl_fault::exit_code`]) — `0` success (possibly degraded; the
//! degradation tag says so), `2` usage error, `3` fault. Strings are
//! `u32 LE length | UTF-8 bytes`; floats travel as `f64::to_bits` so
//! estimates are bit-identical across the wire.

use std::io::{self, Read, Write};

use tl_fault::{exit_code, Degradation, Fault, FaultKind, Outcome};
use treelattice::Estimator;

/// Upper bound on a frame body; decoders reject bigger length prefixes
/// before allocating.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// FNV-1a 64-bit, the frame checksum. Stable, dependency-free, and cheap
/// enough to run on every frame.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One client request. The tenant name scopes scheduling (fair-queue
/// lane) and budget enforcement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Estimate one twig query.
    Estimate {
        tenant: String,
        estimator: Estimator,
        query: String,
    },
    /// Estimate a batch of twig queries in one round trip.
    EstimateBatch {
        tenant: String,
        estimator: Estimator,
        queries: Vec<String>,
    },
    /// Look up the exact stored count for a query's canonical pattern,
    /// if the summary holds one.
    Truth { tenant: String, query: String },
    /// Feed back the true cardinality of an executed query (the online
    /// tuning path; memory backend only). `idem` is a client-chosen
    /// idempotency key (`0` = none): a retried update with the same key
    /// is acknowledged without re-applying, so an ack lost in flight
    /// cannot double-apply.
    Update {
        tenant: String,
        query: String,
        true_count: u64,
        idem: u64,
    },
    /// Fetch the tl-metrics/1 snapshot JSON.
    Scrape { tenant: String },
}

impl Request {
    pub fn tenant(&self) -> &str {
        match self {
            Request::Estimate { tenant, .. }
            | Request::EstimateBatch { tenant, .. }
            | Request::Truth { tenant, .. }
            | Request::Update { tenant, .. }
            | Request::Scrape { tenant } => tenant,
        }
    }

    /// Stable op name for logs and error messages.
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Estimate { .. } => "estimate",
            Request::EstimateBatch { .. } => "estimate-batch",
            Request::Truth { .. } => "truth",
            Request::Update { .. } => "update",
            Request::Scrape { .. } => "scrape",
        }
    }
}

/// An estimate as it travels on the wire: the value plus its provenance,
/// exactly the [`treelattice::ResilientEstimate`] contract.
#[derive(Clone, Debug, PartialEq)]
pub struct WireEstimate {
    pub value: f64,
    pub degradation: Degradation,
    pub cause: Option<Fault>,
}

impl WireEstimate {
    pub fn exact(value: f64) -> Self {
        Self {
            value,
            degradation: Degradation::None,
            cause: None,
        }
    }
}

/// One server response. `Error` is the only non-`0` status; everything
/// else is a success (degradations ride inside [`WireEstimate`]).
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    Estimate(WireEstimate),
    /// Per-item results: a contained worker panic faults one item without
    /// losing the rest.
    Batch(Vec<Result<WireEstimate, Fault>>),
    Truth {
        stored: Option<u64>,
    },
    Updated {
        generation: u64,
    },
    Scrape {
        json: String,
    },
    /// A typed failure: `outcome` picks the status byte (usage = 2,
    /// fault = 3), `fault` carries the kind and message.
    Error {
        outcome: Outcome,
        fault: Fault,
    },
}

impl Response {
    pub fn usage(fault: Fault) -> Self {
        Response::Error {
            outcome: Outcome::UsageError,
            fault,
        }
    }

    pub fn fault(fault: Fault) -> Self {
        Response::Error {
            outcome: Outcome::Fault,
            fault,
        }
    }

    /// The status byte: the shared exit-code table applied to this
    /// response.
    pub fn status(&self) -> u8 {
        let outcome = match self {
            Response::Error { outcome, .. } => *outcome,
            Response::Estimate(e) if e.degradation.is_degraded() => Outcome::DegradedOk,
            _ => Outcome::Success,
        };
        exit_code(outcome) as u8
    }
}

// --- framing ---------------------------------------------------------

/// Frame buffers grown past this capacity are released after use, so one
/// oversized frame does not pin its memory for the rest of a connection.
pub(crate) const FRAME_BUF_KEEP: usize = 64 << 10;

/// Writes one frame (`len | body | checksum`) to `w` with a single
/// `write_all`, so a `TCP_NODELAY` socket sends it as one segment rather
/// than three. `encode` appends the body to `buf`, a caller-owned scratch
/// buffer reused across frames (cleared first; released afterwards if it
/// grew past [`FRAME_BUF_KEEP`]).
pub(crate) fn write_frame_with(
    w: &mut impl Write,
    buf: &mut Vec<u8>,
    encode: impl FnOnce(&mut Vec<u8>),
) -> io::Result<()> {
    buf.clear();
    buf.extend_from_slice(&[0; 4]);
    encode(buf);
    let len = buf.len() - 4;
    debug_assert!(len <= MAX_FRAME_LEN);
    buf[..4].copy_from_slice(&(len as u32).to_le_bytes());
    let sum = fnv1a(&buf[4..]);
    buf.extend_from_slice(&sum.to_le_bytes());
    let written = w.write_all(buf).and_then(|()| w.flush());
    release_oversized(buf);
    written
}

/// Writes one frame (`len | body | checksum`) to `w` with a single write.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(body.len() + 12);
    write_frame_with(w, &mut buf, |out| out.extend_from_slice(body))
}

/// Drops a scratch buffer's allocation once it has grown past
/// [`FRAME_BUF_KEEP`].
pub(crate) fn release_oversized(buf: &mut Vec<u8>) {
    if buf.capacity() > FRAME_BUF_KEEP {
        *buf = Vec::new();
    }
}

/// How reading a frame can end besides success.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Eof,
    /// An I/O error (includes read timeouts, which callers use to poll
    /// shutdown flags).
    Io(io::Error),
    /// The frame could not be completed: oversized length prefix,
    /// truncated body, checksum mismatch, or a peer that stalled mid-frame.
    Corrupt(Fault),
}

/// Reads one frame, verifying the checksum. Truncation mid-frame and
/// checksum mismatches come back as `Corrupt` with a typed
/// [`FaultKind::Parse`] fault; a read timeout, before or inside the frame,
/// comes back as `Io`.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut body = Vec::new();
    read_frame_into(r, &mut body, &mut |e| Err(FrameError::Io(e)))?;
    Ok(body)
}

/// Reads one frame into `body` (cleared first, capacity reused), verifying
/// the checksum.
///
/// A read timeout before the frame's first byte returns `Io` at once — the
/// caller's idle poll. Once the frame has started, a timeout is handed to
/// `stalled`: `Ok(())` keeps reading where the frame left off, `Err` ends
/// the read with that error. Either way no byte of a started frame is
/// dropped, so a pause inside a frame can never shift the stream onto a
/// false length prefix.
pub(crate) fn read_frame_into(
    r: &mut impl Read,
    body: &mut Vec<u8>,
    stalled: &mut dyn FnMut(io::Error) -> Result<(), FrameError>,
) -> Result<(), FrameError> {
    let mut started = false;
    let mut len_buf = [0u8; 4];
    fill(r, &mut len_buf, &mut started, stalled)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Corrupt(Fault::parse(format!(
            "frame length {len} exceeds cap {MAX_FRAME_LEN}"
        ))));
    }
    body.clear();
    body.resize(len, 0);
    fill(r, body, &mut started, stalled)?;
    let mut sum_buf = [0u8; 8];
    fill(r, &mut sum_buf, &mut started, stalled)?;
    let expect = u64::from_le_bytes(sum_buf);
    let got = fnv1a(body);
    if got != expect {
        return Err(FrameError::Corrupt(Fault::parse(format!(
            "frame checksum mismatch: stored {expect:#x}, computed {got:#x}"
        ))));
    }
    Ok(())
}

/// Fills `buf` completely, tracking progress across partial reads and
/// timeouts (unlike `read_exact`, which loses the count on error).
fn fill(
    r: &mut impl Read,
    buf: &mut [u8],
    started: &mut bool,
    stalled: &mut dyn FnMut(io::Error) -> Result<(), FrameError>,
) -> Result<(), FrameError> {
    let mut pos = 0;
    while pos < buf.len() {
        match r.read(&mut buf[pos..]) {
            Ok(0) if *started => return Err(FrameError::Corrupt(Fault::parse("truncated frame"))),
            Ok(0) => return Err(FrameError::Eof),
            Ok(n) => {
                pos += n;
                *started = true;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if *started
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
            {
                stalled(e)?
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

// --- body encoding ---------------------------------------------------

struct Enc<'a>(&'a mut Vec<u8>);

impl Enc<'_> {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn string(&mut self, s: &str) {
        self.0.extend_from_slice(&(s.len() as u32).to_le_bytes());
        self.0.extend_from_slice(s.as_bytes());
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], Fault> {
        if self.buf.len() - self.pos < n {
            return Err(Fault::parse(format!(
                "truncated {what}: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, Fault> {
        Ok(self.take(1, what)?[0])
    }
    fn u16(&mut self, what: &str) -> Result<u16, Fault> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }
    fn u32(&mut self, what: &str) -> Result<u32, Fault> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }
    fn u64(&mut self, what: &str) -> Result<u64, Fault> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn string(&mut self, what: &str) -> Result<String, Fault> {
        let len = self.u32(what)? as usize;
        if len > MAX_FRAME_LEN {
            return Err(Fault::parse(format!(
                "{what} length {len} exceeds frame cap"
            )));
        }
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Fault::parse(format!("{what} is not valid UTF-8")))
    }

    fn finish(self, what: &str) -> Result<(), Fault> {
        if self.pos != self.buf.len() {
            return Err(Fault::parse(format!(
                "{} trailing bytes after {what}",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

const OP_ESTIMATE: u8 = 0;
const OP_BATCH: u8 = 1;
const OP_TRUTH: u8 = 2;
const OP_UPDATE: u8 = 3;
const OP_SCRAPE: u8 = 4;

fn estimator_code(e: Estimator) -> u8 {
    match e {
        Estimator::Recursive => 0,
        Estimator::RecursiveVoting => 1,
        Estimator::FixSized => 2,
        Estimator::FixSizedVoting => 3,
    }
}

fn estimator_from(code: u8) -> Result<Estimator, Fault> {
    match code {
        0 => Ok(Estimator::Recursive),
        1 => Ok(Estimator::RecursiveVoting),
        2 => Ok(Estimator::FixSized),
        3 => Ok(Estimator::FixSizedVoting),
        other => Err(Fault::parse(format!("unknown estimator code {other}"))),
    }
}

fn fault_kind_code(k: FaultKind) -> u8 {
    match k {
        FaultKind::Parse => 0,
        FaultKind::BudgetExhausted => 1,
        FaultKind::GroupTooLarge => 2,
        FaultKind::CorruptSummary => 3,
        FaultKind::WorkerPanic => 4,
        FaultKind::Timeout => 5,
    }
}

fn fault_kind_from(code: u8) -> Result<FaultKind, Fault> {
    match code {
        0 => Ok(FaultKind::Parse),
        1 => Ok(FaultKind::BudgetExhausted),
        2 => Ok(FaultKind::GroupTooLarge),
        3 => Ok(FaultKind::CorruptSummary),
        4 => Ok(FaultKind::WorkerPanic),
        5 => Ok(FaultKind::Timeout),
        other => Err(Fault::parse(format!("unknown fault kind code {other}"))),
    }
}

fn enc_fault(enc: &mut Enc, f: &Fault) {
    enc.u8(fault_kind_code(f.kind));
    enc.string(&f.message);
}

fn dec_fault(dec: &mut Dec) -> Result<Fault, Fault> {
    let kind = fault_kind_from(dec.u8("fault kind")?)?;
    let message = dec.string("fault message")?;
    Ok(Fault::new(kind, message))
}

fn enc_estimate(enc: &mut Enc, e: &WireEstimate) {
    match e.degradation {
        Degradation::None => enc.u8(0),
        Degradation::ReducedK { k } => {
            enc.u8(1);
            enc.u16(k as u16);
        }
        Degradation::Markov => enc.u8(2),
    }
    match &e.cause {
        None => enc.u8(0),
        Some(f) => {
            enc.u8(1);
            enc_fault(enc, f);
        }
    }
    enc.u64(e.value.to_bits());
}

fn dec_estimate(dec: &mut Dec) -> Result<WireEstimate, Fault> {
    let degradation = match dec.u8("degradation tag")? {
        0 => Degradation::None,
        1 => Degradation::ReducedK {
            k: dec.u16("reduced k")? as usize,
        },
        2 => Degradation::Markov,
        other => return Err(Fault::parse(format!("unknown degradation tag {other}"))),
    };
    let cause = match dec.u8("cause tag")? {
        0 => None,
        1 => Some(dec_fault(dec)?),
        other => return Err(Fault::parse(format!("unknown cause tag {other}"))),
    };
    let value = f64::from_bits(dec.u64("estimate value")?);
    Ok(WireEstimate {
        value,
        degradation,
        cause,
    })
}

impl Request {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Appends the encoded request body to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        let mut enc = Enc(out);
        match self {
            Request::Estimate {
                tenant,
                estimator,
                query,
            } => {
                enc.u8(OP_ESTIMATE);
                enc.string(tenant);
                enc.u8(estimator_code(*estimator));
                enc.string(query);
            }
            Request::EstimateBatch {
                tenant,
                estimator,
                queries,
            } => {
                enc.u8(OP_BATCH);
                enc.string(tenant);
                enc.u8(estimator_code(*estimator));
                enc.u16(queries.len() as u16);
                for q in queries {
                    enc.string(q);
                }
            }
            Request::Truth { tenant, query } => {
                enc.u8(OP_TRUTH);
                enc.string(tenant);
                enc.string(query);
            }
            Request::Update {
                tenant,
                query,
                true_count,
                idem,
            } => {
                enc.u8(OP_UPDATE);
                enc.string(tenant);
                enc.string(query);
                enc.u64(*true_count);
                enc.u64(*idem);
            }
            Request::Scrape { tenant } => {
                enc.u8(OP_SCRAPE);
                enc.string(tenant);
            }
        }
    }

    /// Decodes a request body. Every malformation — unknown op, truncated
    /// field, bad UTF-8, trailing garbage — is a typed parse [`Fault`].
    pub fn decode(body: &[u8]) -> Result<Self, Fault> {
        let mut dec = Dec::new(body);
        let op = dec.u8("op code")?;
        let tenant = dec.string("tenant")?;
        let req = match op {
            OP_ESTIMATE => {
                let estimator = estimator_from(dec.u8("estimator")?)?;
                let query = dec.string("query")?;
                Request::Estimate {
                    tenant,
                    estimator,
                    query,
                }
            }
            OP_BATCH => {
                let estimator = estimator_from(dec.u8("estimator")?)?;
                let n = dec.u16("batch size")? as usize;
                let mut queries = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    queries.push(dec.string("batch query")?);
                }
                Request::EstimateBatch {
                    tenant,
                    estimator,
                    queries,
                }
            }
            OP_TRUTH => Request::Truth {
                tenant,
                query: dec.string("query")?,
            },
            OP_UPDATE => Request::Update {
                tenant,
                query: dec.string("query")?,
                true_count: dec.u64("true count")?,
                idem: dec.u64("idempotency key")?,
            },
            OP_SCRAPE => Request::Scrape { tenant },
            other => return Err(Fault::parse(format!("unknown op code {other}"))),
        };
        dec.finish("request")?;
        Ok(req)
    }
}

const RESP_ESTIMATE: u8 = 0;
const RESP_BATCH: u8 = 1;
const RESP_TRUTH: u8 = 2;
const RESP_UPDATED: u8 = 3;
const RESP_SCRAPE: u8 = 4;

impl Response {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_into(&mut out);
        out
    }

    /// Appends the encoded response body to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        let mut enc = Enc(out);
        enc.u8(self.status());
        match self {
            Response::Error { fault, .. } => {
                enc_fault(&mut enc, fault);
            }
            Response::Estimate(e) => {
                enc.u8(RESP_ESTIMATE);
                enc_estimate(&mut enc, e);
            }
            Response::Batch(items) => {
                enc.u8(RESP_BATCH);
                enc.u16(items.len() as u16);
                for item in items {
                    match item {
                        Ok(e) => {
                            enc.u8(0);
                            enc_estimate(&mut enc, e);
                        }
                        Err(f) => {
                            enc.u8(1);
                            enc_fault(&mut enc, f);
                        }
                    }
                }
            }
            Response::Truth { stored } => {
                enc.u8(RESP_TRUTH);
                match stored {
                    None => enc.u8(0),
                    Some(c) => {
                        enc.u8(1);
                        enc.u64(*c);
                    }
                }
            }
            Response::Updated { generation } => {
                enc.u8(RESP_UPDATED);
                enc.u64(*generation);
            }
            Response::Scrape { json } => {
                enc.u8(RESP_SCRAPE);
                enc.string(json);
            }
        }
    }

    pub fn decode(body: &[u8]) -> Result<Self, Fault> {
        let mut dec = Dec::new(body);
        let status = dec.u8("status byte")?;
        let resp = match status {
            0 => {
                let tag = dec.u8("response tag")?;
                match tag {
                    RESP_ESTIMATE => Response::Estimate(dec_estimate(&mut dec)?),
                    RESP_BATCH => {
                        let n = dec.u16("batch size")? as usize;
                        let mut items = Vec::with_capacity(n.min(1024));
                        for _ in 0..n {
                            items.push(match dec.u8("batch item tag")? {
                                0 => Ok(dec_estimate(&mut dec)?),
                                1 => Err(dec_fault(&mut dec)?),
                                other => {
                                    return Err(Fault::parse(format!(
                                        "unknown batch item tag {other}"
                                    )))
                                }
                            });
                        }
                        Response::Batch(items)
                    }
                    RESP_TRUTH => Response::Truth {
                        stored: match dec.u8("truth tag")? {
                            0 => None,
                            1 => Some(dec.u64("truth count")?),
                            other => {
                                return Err(Fault::parse(format!("unknown truth tag {other}")))
                            }
                        },
                    },
                    RESP_UPDATED => Response::Updated {
                        generation: dec.u64("generation")?,
                    },
                    RESP_SCRAPE => Response::Scrape {
                        json: dec.string("snapshot json")?,
                    },
                    other => return Err(Fault::parse(format!("unknown response tag {other}"))),
                }
            }
            2 => Response::Error {
                outcome: Outcome::UsageError,
                fault: dec_fault(&mut dec)?,
            },
            3 => Response::Error {
                outcome: Outcome::Fault,
                fault: dec_fault(&mut dec)?,
            },
            other => return Err(Fault::parse(format!("unknown status byte {other}"))),
        };
        dec.finish("response")?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Estimate {
                tenant: "alpha".into(),
                estimator: Estimator::RecursiveVoting,
                query: "a[b][c/d]".into(),
            },
            Request::EstimateBatch {
                tenant: "beta".into(),
                estimator: Estimator::FixSized,
                queries: vec!["a/b".into(), "r//x".into(), String::new()],
            },
            Request::Truth {
                tenant: "t".into(),
                query: "a/b/c".into(),
            },
            Request::Update {
                tenant: String::new(),
                query: "a".into(),
                true_count: u64::MAX,
                idem: 0xdead_beef,
            },
            Request::Scrape {
                tenant: "ops".into(),
            },
        ]
    }

    #[test]
    fn request_round_trip() {
        for req in sample_requests() {
            let body = req.encode();
            assert_eq!(Request::decode(&body).unwrap(), req);
        }
    }

    #[test]
    fn response_round_trip_preserves_value_bits() {
        let responses = vec![
            Response::Estimate(WireEstimate::exact(1234.5678e-3)),
            Response::Estimate(WireEstimate {
                value: f64::MIN_POSITIVE,
                degradation: Degradation::ReducedK { k: 3 },
                cause: Some(Fault::timeout("deadline expired")),
            }),
            Response::Batch(vec![
                Ok(WireEstimate::exact(0.0)),
                Err(Fault::worker_panic("boom")),
                Ok(WireEstimate {
                    value: 7.0,
                    degradation: Degradation::Markov,
                    cause: Some(Fault::budget("queue full")),
                }),
            ]),
            Response::Truth { stored: Some(42) },
            Response::Truth { stored: None },
            Response::Updated { generation: 9 },
            Response::Scrape {
                json: "{\"schema\":\"tl-metrics/1\"}".into(),
            },
            Response::usage(Fault::parse("bad query")),
            Response::fault(Fault::corrupt_summary("bad frame")),
        ];
        for resp in responses {
            let body = resp.encode();
            let back = Response::decode(&body).unwrap();
            assert_eq!(back, resp);
            if let (Response::Estimate(a), Response::Estimate(b)) = (&resp, &back) {
                assert_eq!(a.value.to_bits(), b.value.to_bits());
            }
        }
    }

    #[test]
    fn status_byte_follows_exit_code_table() {
        assert_eq!(Response::Estimate(WireEstimate::exact(1.0)).status(), 0);
        // Degraded is still success to scripts: status 0.
        let degraded = Response::Estimate(WireEstimate {
            value: 1.0,
            degradation: Degradation::Markov,
            cause: None,
        });
        assert_eq!(degraded.status(), 0);
        assert_eq!(Response::usage(Fault::parse("x")).status(), 2);
        assert_eq!(Response::fault(Fault::timeout("x")).status(), 3);
    }

    #[test]
    fn frame_round_trip_and_corruption() {
        let body = Request::Scrape { tenant: "x".into() }.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();

        // Clean round trip.
        let got = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(got, body);

        // A flipped bit in the body trips the checksum as a typed fault.
        let mut flipped = wire.clone();
        flipped[5] ^= 0x40;
        match read_frame(&mut flipped.as_slice()) {
            Err(FrameError::Corrupt(f)) => assert_eq!(f.kind, FaultKind::Parse),
            other => panic!("expected corrupt, got {other:?}"),
        }

        // Truncation mid-frame is typed too.
        let cut = &wire[..wire.len() - 3];
        match read_frame(&mut &cut[..]) {
            Err(FrameError::Corrupt(f)) => assert_eq!(f.kind, FaultKind::Parse),
            other => panic!("expected corrupt, got {other:?}"),
        }

        // EOF between frames is a clean close, not a fault.
        match read_frame(&mut [].as_slice()) {
            Err(FrameError::Eof) => {}
            other => panic!("expected eof, got {other:?}"),
        }
    }

    /// Replays `chunks` one `read` at a time; `None` is a read timeout.
    struct Chunked(std::collections::VecDeque<Option<Vec<u8>>>);

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(None) => Err(io::ErrorKind::WouldBlock.into()),
                Some(Some(mut chunk)) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.0.push_front(Some(chunk.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn timeout_inside_a_frame_resumes_without_losing_bytes() {
        let body = Request::Scrape { tenant: "x".into() }.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        // Pauses after the prefix, inside the body, and before the sum.
        let split = |wire: &[u8]| {
            Chunked(
                [
                    Some(wire[..4].to_vec()),
                    None,
                    Some(wire[4..7].to_vec()),
                    None,
                    Some(wire[7..wire.len() - 8].to_vec()),
                    None,
                    Some(wire[wire.len() - 8..].to_vec()),
                ]
                .into(),
            )
        };
        let mut got = Vec::new();
        let mut stalls = 0;
        read_frame_into(&mut split(&wire), &mut got, &mut |_| {
            stalls += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!((got, stalls), (body, 3));

        // A caller that gives up gets its own error back; a timeout before
        // the first byte is always the plain idle poll.
        let give_up = &mut |_| Err(FrameError::Corrupt(Fault::timeout("stalled")));
        match read_frame_into(&mut split(&wire), &mut Vec::new(), give_up) {
            Err(FrameError::Corrupt(f)) => assert_eq!(f.kind, FaultKind::Timeout),
            other => panic!("expected the stall fault, got {other:?}"),
        }
        let mut idle = Chunked([None].into());
        match read_frame_into(&mut idle, &mut Vec::new(), give_up) {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            other => panic!("expected the idle poll, got {other:?}"),
        }
    }

    #[test]
    fn frames_go_out_in_one_write_and_big_buffers_are_released() {
        struct Writes(Vec<usize>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let resp = Response::Estimate(WireEstimate::exact(2.5));
        let mut out = Writes(Vec::new());
        let mut buf = Vec::new();
        write_frame_with(&mut out, &mut buf, |b| resp.encode_into(b)).unwrap();
        assert_eq!(out.0, vec![4 + resp.encode().len() + 8]);
        assert!(buf.capacity() > 0, "a small buffer is kept for reuse");

        let big = vec![7u8; FRAME_BUF_KEEP + 1];
        write_frame_with(&mut out, &mut buf, |b| b.extend_from_slice(&big)).unwrap();
        assert_eq!(out.0.len(), 2);
        assert_eq!(buf.capacity(), 0, "an oversized buffer is released");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        match read_frame(&mut wire.as_slice()) {
            Err(FrameError::Corrupt(f)) => {
                assert_eq!(f.kind, FaultKind::Parse);
                assert!(f.message.contains("exceeds cap"));
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }
}
