//! Binary wire codec for [`Plan`]: a compact, versioned, deterministic
//! serialization so a schedule can be cached, shipped over a socket, or
//! written to disk and rebuilt bit-for-bit elsewhere.
//!
//! The primary consumer is `hetgrid-serve`, whose content-addressed
//! plan cache stores encoded plans and whose `plan` endpoint returns
//! them to remote clients; the round-trip property (`decode(encode(p))
//! == p`) is what makes a cached response interchangeable with a fresh
//! solve.
//!
//! Format (all integers little-endian, indices as `u32`):
//!
//! ```text
//! u8 version (= 1)
//! u32 p, u32 q                       grid shape
//! u32 rows, then rows x cols x u32   owned-C table (0 rows when empty)
//! u32 nsteps, then per step:
//!   u8 tag: 0 Mm, 1 Factor, 2 Cholesky, 3 Qr,
//!           4 Load, 5 Compute, 6 Evict (star steps)
//!   tag-specific fields in declaration order; every Vec is a u32
//!   count followed by its elements; a grid coordinate is two u32s;
//!   a Mat is one byte (0 A, 1 B, 2 C), a LoadSrc one byte
//!   (0 Master, 1 Zero), a bool one byte (0 / 1).
//! ```
//!
//! Decoding is total: malformed input yields a typed [`DecodeError`]
//! (never a panic), and trailing garbage after a well-formed plan is an
//! error too, so a decoded plan always accounts for every input byte.
//! The [`DecodeErrorKind`] distinguishes recoverable situations — a
//! peer speaking a newer codec ([`DecodeErrorKind::UnknownStepTag`] /
//! [`DecodeErrorKind::UnsupportedVersion`]) — from plain corruption, so
//! callers can downgrade gracefully instead of treating every failure
//! as data loss.

use crate::{Bcast, LoadSrc, Mat, OwnerWork, Plan, QrColumn, Step};

/// Codec version written by [`encode`] and required by [`decode`].
pub const WIRE_VERSION: u8 = 1;

/// Why a plan buffer failed to decode (see [`DecodeError`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeErrorKind {
    /// The input ended mid-field, or a length prefix implied more bytes
    /// than remain.
    Truncated,
    /// The version byte is not [`WIRE_VERSION`]; the payload may be a
    /// valid plan from a different codec generation.
    UnsupportedVersion(u8),
    /// A step tag outside the known set — likely a plan from a newer
    /// codec that added step kinds.
    UnknownStepTag(u8),
    /// An enum-coded field (`Mat`, `LoadSrc`, bool) held a byte outside
    /// its valid range.
    InvalidField,
    /// Bytes left over after a complete plan.
    TrailingBytes,
}

/// A malformed plan buffer: what went wrong and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset at which decoding failed.
    pub offset: usize,
    /// What the decoder was reading when the input ran out or made no
    /// sense.
    pub what: &'static str,
    /// Machine-checkable failure class.
    pub kind: DecodeErrorKind,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed plan at byte {}: {}", self.offset, self.what)
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u32).to_le_bytes());
}

fn put_pair(out: &mut Vec<u8>, (a, b): (usize, usize)) {
    put_u32(out, a);
    put_u32(out, b);
}

fn put_pairs(out: &mut Vec<u8>, pairs: &[(usize, usize)]) {
    put_u32(out, pairs.len());
    for &p in pairs {
        put_pair(out, p);
    }
}

fn put_bcasts(out: &mut Vec<u8>, bcasts: &[Bcast]) {
    put_u32(out, bcasts.len());
    for b in bcasts {
        put_pair(out, b.block);
        put_pair(out, b.src);
        put_pairs(out, &b.dests);
    }
}

fn put_work(out: &mut Vec<u8>, work: &[OwnerWork]) {
    put_u32(out, work.len());
    for w in work {
        put_pair(out, w.owner);
        put_u32(out, w.blocks);
    }
}

fn put_table(out: &mut Vec<u8>, table: &[Vec<usize>]) {
    put_u32(out, table.len());
    for row in table {
        put_u32(out, row.len());
        for &v in row {
            put_u32(out, v);
        }
    }
}

fn mat_byte(mat: Mat) -> u8 {
    match mat {
        Mat::A => 0,
        Mat::B => 1,
        Mat::C => 2,
    }
}

fn src_byte(src: LoadSrc) -> u8 {
    match src {
        LoadSrc::Master => 0,
        LoadSrc::Zero => 1,
    }
}

/// Serializes a plan to its canonical byte form.
pub fn encode(plan: &Plan) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + plan.steps.len() * 64);
    encode_into(plan, &mut out);
    out
}

/// Serializes a plan into a caller-provided buffer, appending the
/// canonical byte form. Clearing and reusing one buffer across many
/// encodes (the serve cache's hot path) avoids a fresh allocation per
/// plan; the bytes appended are identical to [`encode`]'s.
pub fn encode_into(plan: &Plan, out: &mut Vec<u8>) {
    out.push(WIRE_VERSION);
    put_pair(out, plan.grid);
    put_table(out, &plan.owned);
    put_u32(out, plan.steps.len());
    for step in &plan.steps {
        match step {
            Step::Mm {
                k,
                a_bcasts,
                b_bcasts,
            } => {
                out.push(0);
                put_u32(out, *k);
                put_bcasts(out, a_bcasts);
                put_bcasts(out, b_bcasts);
            }
            Step::Factor {
                k,
                diag,
                panel,
                diag_col_dests,
                l_bcasts,
                trsm,
                u_bcasts,
                trailing,
            } => {
                out.push(1);
                put_u32(out, *k);
                put_pair(out, *diag);
                put_work(out, panel);
                put_pairs(out, diag_col_dests);
                put_bcasts(out, l_bcasts);
                put_work(out, trsm);
                put_bcasts(out, u_bcasts);
                put_table(out, trailing);
            }
            Step::Cholesky {
                k,
                diag,
                diag_dests,
                panel,
                panel_bcasts,
                trailing,
            } => {
                out.push(2);
                put_u32(out, *k);
                put_pair(out, *diag);
                put_pairs(out, diag_dests);
                put_work(out, panel);
                put_bcasts(out, panel_bcasts);
                put_work(out, trailing);
            }
            Step::Qr {
                k,
                diag,
                panel,
                reflector_dests,
                columns,
            } => {
                out.push(3);
                put_u32(out, *k);
                put_pair(out, *diag);
                put_u32(out, panel.len());
                for (block, owner) in panel {
                    put_pair(out, *block);
                    put_pair(out, *owner);
                }
                put_pairs(out, reflector_dests);
                put_u32(out, columns.len());
                for col in columns {
                    put_u32(out, col.bj);
                    put_pair(out, col.head);
                    put_u32(out, col.members.len());
                    for (block, owner) in &col.members {
                        put_pair(out, *block);
                        put_pair(out, *owner);
                    }
                }
            }
            Step::Load {
                k,
                worker,
                mat,
                block,
                src,
            } => {
                out.push(4);
                put_u32(out, *k);
                put_u32(out, *worker);
                out.push(mat_byte(*mat));
                put_pair(out, *block);
                out.push(src_byte(*src));
            }
            Step::Compute { k, worker, c, a, b } => {
                out.push(5);
                put_u32(out, *k);
                put_u32(out, *worker);
                put_pair(out, *c);
                put_pair(out, *a);
                put_pair(out, *b);
            }
            Step::Evict {
                k,
                worker,
                mat,
                block,
                send_back,
            } => {
                out.push(6);
                put_u32(out, *k);
                put_u32(out, *worker);
                out.push(mat_byte(*mat));
                put_pair(out, *block);
                out.push(u8::from(*send_back));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, what: &'static str) -> DecodeError {
        self.err_kind(what, DecodeErrorKind::Truncated)
    }

    fn err_kind(&self, what: &'static str, kind: DecodeErrorKind) -> DecodeError {
        DecodeError {
            offset: self.pos,
            what,
            kind,
        }
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or_else(|| self.err(what))?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self, what: &'static str) -> Result<usize, DecodeError> {
        let (bytes, _) = self.buf[self.pos..]
            .split_first_chunk::<4>()
            .ok_or_else(|| self.err(what))?;
        self.pos += 4;
        Ok(u32::from_le_bytes(*bytes) as usize)
    }

    /// Reads a `u32` element count and sanity-bounds it against the
    /// bytes remaining (each element needs at least `min_elem_bytes`),
    /// so a corrupt length can never trigger a huge allocation.
    fn count(&mut self, min_elem_bytes: usize, what: &'static str) -> Result<usize, DecodeError> {
        let n = self.u32(what)?;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem_bytes) > remaining {
            return Err(self.err(what));
        }
        Ok(n)
    }

    fn pair(&mut self, what: &'static str) -> Result<(usize, usize), DecodeError> {
        Ok((self.u32(what)?, self.u32(what)?))
    }

    fn pairs(&mut self, what: &'static str) -> Result<Vec<(usize, usize)>, DecodeError> {
        let n = self.count(8, what)?;
        (0..n).map(|_| self.pair(what)).collect()
    }

    fn bcasts(&mut self, what: &'static str) -> Result<Vec<Bcast>, DecodeError> {
        let n = self.count(20, what)?;
        (0..n)
            .map(|_| {
                Ok(Bcast {
                    block: self.pair(what)?,
                    src: self.pair(what)?,
                    dests: self.pairs(what)?,
                })
            })
            .collect()
    }

    fn work(&mut self, what: &'static str) -> Result<Vec<OwnerWork>, DecodeError> {
        let n = self.count(12, what)?;
        (0..n)
            .map(|_| {
                Ok(OwnerWork {
                    owner: self.pair(what)?,
                    blocks: self.u32(what)?,
                })
            })
            .collect()
    }

    fn mat(&mut self, what: &'static str) -> Result<Mat, DecodeError> {
        match self.u8(what)? {
            0 => Ok(Mat::A),
            1 => Ok(Mat::B),
            2 => Ok(Mat::C),
            _ => Err(self.err_kind(what, DecodeErrorKind::InvalidField)),
        }
    }

    fn src(&mut self, what: &'static str) -> Result<LoadSrc, DecodeError> {
        match self.u8(what)? {
            0 => Ok(LoadSrc::Master),
            1 => Ok(LoadSrc::Zero),
            _ => Err(self.err_kind(what, DecodeErrorKind::InvalidField)),
        }
    }

    fn boolean(&mut self, what: &'static str) -> Result<bool, DecodeError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.err_kind(what, DecodeErrorKind::InvalidField)),
        }
    }

    fn table(&mut self, what: &'static str) -> Result<Vec<Vec<usize>>, DecodeError> {
        let rows = self.count(4, what)?;
        (0..rows)
            .map(|_| {
                let cols = self.count(4, what)?;
                (0..cols).map(|_| self.u32(what)).collect()
            })
            .collect()
    }
}

/// Rebuilds a plan from [`encode`]'s byte form. Total: any malformed
/// input (wrong version, truncation, oversize counts, trailing bytes)
/// is a [`DecodeError`], never a panic.
pub fn decode(buf: &[u8]) -> Result<Plan, DecodeError> {
    let mut c = Cursor { buf, pos: 0 };
    let version = c.u8("version byte")?;
    if version != WIRE_VERSION {
        return Err(DecodeError {
            offset: 0,
            what: "unsupported plan codec version",
            kind: DecodeErrorKind::UnsupportedVersion(version),
        });
    }
    let grid = c.pair("grid shape")?;
    let owned = c.table("owned-C table")?;
    let nsteps = c.count(5, "step count")?;
    let mut steps = Vec::with_capacity(nsteps);
    for _ in 0..nsteps {
        let tag = c.u8("step tag")?;
        let step = match tag {
            0 => Step::Mm {
                k: c.u32("mm step")?,
                a_bcasts: c.bcasts("mm a_bcasts")?,
                b_bcasts: c.bcasts("mm b_bcasts")?,
            },
            1 => Step::Factor {
                k: c.u32("factor step")?,
                diag: c.pair("factor diag")?,
                panel: c.work("factor panel")?,
                diag_col_dests: c.pairs("factor diag_col_dests")?,
                l_bcasts: c.bcasts("factor l_bcasts")?,
                trsm: c.work("factor trsm")?,
                u_bcasts: c.bcasts("factor u_bcasts")?,
                trailing: c.table("factor trailing")?,
            },
            2 => Step::Cholesky {
                k: c.u32("cholesky step")?,
                diag: c.pair("cholesky diag")?,
                diag_dests: c.pairs("cholesky diag_dests")?,
                panel: c.work("cholesky panel")?,
                panel_bcasts: c.bcasts("cholesky panel_bcasts")?,
                trailing: c.work("cholesky trailing")?,
            },
            3 => {
                let k = c.u32("qr step")?;
                let diag = c.pair("qr diag")?;
                let npanel = c.count(16, "qr panel")?;
                let panel = (0..npanel)
                    .map(|_| Ok((c.pair("qr panel block")?, c.pair("qr panel owner")?)))
                    .collect::<Result<Vec<_>, DecodeError>>()?;
                let reflector_dests = c.pairs("qr reflector_dests")?;
                let ncols = c.count(16, "qr columns")?;
                let columns = (0..ncols)
                    .map(|_| {
                        let bj = c.u32("qr column bj")?;
                        let head = c.pair("qr column head")?;
                        let nmem = c.count(16, "qr column members")?;
                        let members = (0..nmem)
                            .map(|_| Ok((c.pair("qr member block")?, c.pair("qr member owner")?)))
                            .collect::<Result<Vec<_>, DecodeError>>()?;
                        Ok(QrColumn { bj, head, members })
                    })
                    .collect::<Result<Vec<_>, DecodeError>>()?;
                Step::Qr {
                    k,
                    diag,
                    panel,
                    reflector_dests,
                    columns,
                }
            }
            4 => Step::Load {
                k: c.u32("load step")?,
                worker: c.u32("load worker")?,
                mat: c.mat("load mat")?,
                block: c.pair("load block")?,
                src: c.src("load src")?,
            },
            5 => Step::Compute {
                k: c.u32("compute step")?,
                worker: c.u32("compute worker")?,
                c: c.pair("compute c")?,
                a: c.pair("compute a")?,
                b: c.pair("compute b")?,
            },
            6 => Step::Evict {
                k: c.u32("evict step")?,
                worker: c.u32("evict worker")?,
                mat: c.mat("evict mat")?,
                block: c.pair("evict block")?,
                send_back: c.boolean("evict send_back")?,
            },
            t => return Err(c.err_kind("unknown step tag", DecodeErrorKind::UnknownStepTag(t))),
        };
        steps.push(step);
    }
    if c.pos != buf.len() {
        return Err(c.err_kind("trailing bytes after plan", DecodeErrorKind::TrailingBytes));
    }
    Ok(Plan { grid, owned, steps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cholesky_plan, factor_plan, mm_plan, mm_rect_plan, qr_plan, star_mm_plan};
    use hetgrid_core::Topology;
    use hetgrid_dist::BlockCyclic;

    fn star(workers: usize, worker_mem: usize) -> Topology {
        Topology::Star {
            workers,
            worker_mem,
            master_bw: 1.0,
        }
    }

    fn all_plans() -> Vec<Plan> {
        let dist = BlockCyclic::new(2, 3);
        vec![
            mm_plan(&dist, 5),
            mm_rect_plan(&dist, (4, 6, 3)),
            factor_plan(&dist, 6),
            cholesky_plan(&dist, 6),
            qr_plan(&dist, 5),
            star_mm_plan(&star(2, 7), (4, 3, 3)),
            star_mm_plan(&star(1, 3), (2, 2, 2)),
            Plan {
                grid: (1, 1),
                owned: vec![],
                steps: vec![],
            },
        ]
    }

    #[test]
    fn encode_into_reused_buffer_matches_encode() {
        let mut buf = Vec::new();
        for plan in all_plans() {
            buf.clear();
            encode_into(&plan, &mut buf);
            assert_eq!(buf, encode(&plan));
        }
    }

    #[test]
    fn round_trips_every_kernel_plan() {
        for plan in all_plans() {
            let bytes = encode(&plan);
            let back = decode(&bytes).expect("well-formed plan must decode");
            assert_eq!(back, plan);
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let dist = BlockCyclic::new(3, 2);
        let a = encode(&factor_plan(&dist, 7));
        let b = encode(&factor_plan(&dist, 7));
        assert_eq!(a, b);
    }

    #[test]
    fn truncation_at_every_length_errors_not_panics() {
        for bytes in [
            encode(&qr_plan(&BlockCyclic::new(2, 2), 4)),
            encode(&star_mm_plan(&star(2, 7), (3, 3, 2))),
        ] {
            for len in 0..bytes.len() {
                assert!(
                    decode(&bytes[..len]).is_err(),
                    "truncated prefix of {len} bytes decoded successfully"
                );
            }
        }
    }

    #[test]
    fn corrupt_counts_and_tags_error_not_panic() {
        for bytes in [
            encode(&factor_plan(&BlockCyclic::new(2, 2), 4)),
            encode(&star_mm_plan(&star(2, 7), (3, 3, 2))),
        ] {
            // Flip each byte in turn to an extreme value; decode must
            // return (any) result without panicking or allocating wildly.
            for i in 0..bytes.len() {
                let mut evil = bytes.clone();
                evil[i] = 0xFF;
                let _ = decode(&evil);
            }
        }
        let err = decode(&[9]).unwrap_err();
        assert_eq!(err.what, "unsupported plan codec version");
        assert_eq!(err.kind, DecodeErrorKind::UnsupportedVersion(9));
    }

    #[test]
    fn unknown_step_tag_is_a_typed_error() {
        // A hypothetical future step kind: tag 7 after a valid header.
        let mut bytes = encode(&Plan {
            grid: (1, 2),
            owned: vec![],
            steps: vec![],
        });
        // Rewrite the step count from 0 to 1 and append the alien tag.
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&[7; 24]);
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::UnknownStepTag(7));
        assert_eq!(err.what, "unknown step tag");
    }

    #[test]
    fn invalid_enum_bytes_are_typed_errors() {
        let plan = star_mm_plan(&star(1, 3), (1, 1, 1));
        let bytes = encode(&plan);
        // The first star step is `Load { k: 0, worker: 1, mat, .. }`;
        // its mat byte sits right after the tag and two u32s.
        let header = 1 + 8 + (4 + 4 + 4 * 2) + 4;
        let mat_at = header + 1 + 4 + 4;
        assert_eq!(bytes[mat_at], 2, "expected the C-accumulator load");
        let mut evil = bytes.clone();
        evil[mat_at] = 3;
        assert_eq!(
            decode(&evil).unwrap_err().kind,
            DecodeErrorKind::InvalidField
        );
        for len in 0..bytes.len() {
            let err = decode(&bytes[..len]).unwrap_err();
            assert_eq!(err.kind, DecodeErrorKind::Truncated, "at {len}");
        }
    }

    #[test]
    fn star_byte_layout_is_pinned() {
        // Cross-version pin: this spells the v1 byte layout of every
        // star step kind out longhand. If encode() changes, bump
        // WIRE_VERSION — old caches and remote peers hold these bytes.
        let plan = star_mm_plan(&star(1, 3), (1, 1, 1));
        let le = |v: u32| v.to_le_bytes();
        let mut want: Vec<u8> = Vec::new();
        want.push(1); // version
        want.extend(le(1));
        want.extend(le(2)); // grid 1 x 2
        want.extend(le(1));
        want.extend(le(2));
        want.extend(le(0));
        want.extend(le(1)); // owned [[0, 1]]
        want.extend(le(7)); // 7 steps
        for (tag, k, tail) in [
            (4u8, 0u32, vec![2, 0, 0, 0, 0, 0, 0, 0, 0, 1]), // Load C (0,0) Zero
            (4, 1, vec![1, 0, 0, 0, 0, 0, 0, 0, 0, 0]),      // Load B (0,0) Master
            (4, 2, vec![0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),      // Load A (0,0) Master
            (5, 3, vec![0; 24]),                             // Compute c a b = (0,0)
            (6, 4, vec![0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),      // Evict A, drop
            (6, 5, vec![1, 0, 0, 0, 0, 0, 0, 0, 0, 0]),      // Evict B, drop
            (6, 6, vec![2, 0, 0, 0, 0, 0, 0, 0, 0, 1]),      // Evict C, send back
        ] {
            want.push(tag);
            want.extend(le(k));
            want.extend(le(1)); // worker 1
            want.extend(tail);
        }
        assert_eq!(encode(&plan), want);
        assert_eq!(decode(&want).unwrap(), plan);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode(&mm_plan(&BlockCyclic::new(2, 2), 3));
        bytes.push(0);
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err.what, "trailing bytes after plan");
        assert_eq!(err.kind, DecodeErrorKind::TrailingBytes);
    }
}
