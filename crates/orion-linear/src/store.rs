//! Disk storage for encoded matrix diagonals (paper §6 "Handling large data
//! structures").
//!
//! "Large datasets and networks require hundreds of gigabytes of rotation
//! keys and matrix diagonals. Orion provides support to store these large
//! data structures to disk … loaded dynamically during inference to
//! minimize the size of transient data." The paper uses HDF5; we use a
//! small self-describing little-endian binary format with one file per
//! prepared layer, loaded whole when the layer is needed.

use orion_ckks::encrypt::Plaintext;
use orion_ckks::poly::{Form, RnsPoly};

const PREP_MAGIC: &[u8; 8] = b"ORIONPP2";

/// A typed store failure: either the filesystem failed or a file's content
/// is not what the format says it should be. Load paths return this instead
/// of panicking so a corrupt or missing spill file surfaces as a
/// per-request serve error rather than killing a worker pool.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem operation failed (missing file,
    /// permissions, short write, …).
    Io(std::io::Error),
    /// The file exists but its bytes do not parse as the expected format.
    Malformed {
        /// What was being parsed when the format broke.
        what: String,
    },
}

impl StoreError {
    pub(crate) fn malformed(what: impl Into<String>) -> Self {
        StoreError::Malformed { what: what.into() }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Malformed { what } => write!(f, "malformed store data: {what}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Malformed { .. } => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// On-disk cache of prepared layers: one file per layer holding its level,
/// its *encoded* diagonals in plan order (a present flag, then the
/// plaintext) and its bias plaintexts — what the pager (`crate::paged`)
/// spills and faults in.
pub struct DiagStore {
    dir: std::path::PathBuf,
}

/// The contents of one layer's file: `(level, diagonals in plan order,
/// bias)`.
type PreparedParts = (usize, Vec<Option<Plaintext>>, Option<Vec<Plaintext>>);

impl DiagStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<std::path::PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    fn prepared_path(&self, layer: &str) -> std::path::PathBuf {
        self.dir.join(format!("{layer}.prep"))
    }

    /// Persists a prepared layer — level, *encoded* diagonals (`None` for
    /// an all-zero one) and bias plaintexts — so setup-time encodings
    /// survive process restarts and large layers can be spilled out of
    /// memory (paper §6's on-disk diagonals, but at the post-encode stage
    /// the serving path actually consumes).
    pub(crate) fn save_prepared(
        &self,
        layer: &str,
        level: usize,
        diags: &[Option<Plaintext>],
        bias: Option<&[Plaintext]>,
    ) -> Result<(), StoreError> {
        let mut b = Vec::new();
        b.extend_from_slice(PREP_MAGIC);
        b.extend_from_slice(&(level as u64).to_le_bytes());
        b.extend_from_slice(&(diags.len() as u32).to_le_bytes());
        for d in diags {
            b.push(u8::from(d.is_some()));
            if let Some(pt) = d {
                put_plaintext(&mut b, pt);
            }
        }
        match bias {
            None => b.extend_from_slice(&u32::MAX.to_le_bytes()),
            Some(pts) => {
                b.extend_from_slice(&(pts.len() as u32).to_le_bytes());
                for pt in pts {
                    put_plaintext(&mut b, pt);
                }
            }
        }
        std::fs::write(self.prepared_path(layer), &b)?;
        Ok(())
    }

    /// Loads a layer written by [`DiagStore::save_prepared`].
    pub(crate) fn load_prepared(&self, layer: &str) -> Result<PreparedParts, StoreError> {
        let buf = std::fs::read(self.prepared_path(layer))?;
        let mut r = Reader(&buf);
        let bad = |what: &str| StoreError::malformed(format!("prepared layer: {what}"));
        if r.take(8) != Some(PREP_MAGIC) {
            return Err(bad("bad header"));
        }
        let (level, n) = (r.u64(), r.u32());
        let (Some(level), Some(n)) = (level, n) else {
            return Err(bad("truncated header"));
        };
        // capacity from untrusted input: reserve lazily past a sane bound
        let mut diags = Vec::with_capacity((n as usize).min(1 << 16));
        for _ in 0..n {
            diags.push(match r.u8() {
                Some(0) => None,
                Some(1) => Some(get_plaintext(&mut r).ok_or_else(|| bad("bad diagonal"))?),
                _ => return Err(bad("bad diagonal flag")),
            });
        }
        let bias = match r.u32().ok_or_else(|| bad("truncated bias"))? {
            u32::MAX => None,
            n_bias => Some(
                (0..n_bias)
                    .map(|_| get_plaintext(&mut r).ok_or_else(|| bad("bad bias")))
                    .collect::<Result<_, _>>()?,
            ),
        };
        Ok((level as usize, diags, bias))
    }
}

/// A bounds-checked little-endian reader over a loaded file: every read
/// returns `None` instead of running past the end.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let head = self.0.get(..n)?;
        self.0 = &self.0[n..];
        Some(head)
    }

    fn remaining(&self) -> usize {
        self.0.len()
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// `n` words, or `None` when fewer than `n` remain (no allocation
    /// first).
    fn u64s(&mut self, n: usize) -> Option<Vec<u64>> {
        let bytes = self.take(n.checked_mul(8)?)?;
        Some(
            bytes
                .chunks_exact(8)
                .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
                .collect(),
        )
    }
}

/// Serializes an encoded plaintext: scale, form, chain limb count, degree,
/// special limb count, then the chain limbs and the special limbs.
fn put_plaintext(b: &mut Vec<u8>, pt: &Plaintext) {
    let degree = pt.poly.limbs.first().map(Vec::len).unwrap_or(0);
    let words = (pt.poly.limbs.len() + pt.poly.special.len()) * degree;
    b.reserve(8 + 1 + 4 + 8 + 8 * words + 1);
    b.extend_from_slice(&pt.scale.to_bits().to_le_bytes());
    b.push(match pt.poly.form {
        Form::Coeff => 0,
        Form::Eval => 1,
    });
    b.extend_from_slice(&(pt.poly.limbs.len() as u32).to_le_bytes());
    b.extend_from_slice(&(degree as u64).to_le_bytes());
    let specials = u8::try_from(pt.poly.special.len()).expect("at most 255 special limbs");
    b.push(specials);
    for limb in pt.poly.limbs.iter().chain(&pt.poly.special) {
        for &x in limb {
            b.extend_from_slice(&x.to_le_bytes());
        }
    }
}

/// Inverse of [`put_plaintext`]; returns `None` on malformed input.
fn get_plaintext(r: &mut Reader<'_>) -> Option<Plaintext> {
    let scale = f64::from_bits(r.u64()?);
    let form = match r.u8()? {
        0 => Form::Coeff,
        1 => Form::Eval,
        _ => return None,
    };
    let n_limbs = r.u32()? as usize;
    let degree = r.u64()? as usize;
    let specials = r.u8()? as usize;
    // overflow-safe bound, checked before anything is allocated: corrupt
    // headers must yield None, not a panic (no real plaintext has degree 0)
    let words = (n_limbs.checked_add(specials)?).checked_mul(degree)?;
    if degree == 0 || r.remaining() / 8 < words {
        return None;
    }
    let limbs = (0..n_limbs)
        .map(|_| r.u64s(degree))
        .collect::<Option<_>>()?;
    let special = (0..specials)
        .map(|_| r.u64s(degree))
        .collect::<Option<_>>()?;
    Some(Plaintext {
        poly: RnsPoly {
            limbs,
            special,
            form,
        },
        scale,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_ckks::encoder::Encoder;
    use orion_ckks::params::{CkksParams, Context};

    fn test_dir(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("{name}_{}", std::process::id()))
    }

    #[test]
    fn prepared_layer_roundtrip() {
        let ctx = Context::new(CkksParams::tiny());
        let enc = Encoder::new(ctx.clone());
        let dir = test_dir("orion_prepared_store_test");
        let store = DiagStore::open(&dir).unwrap();

        let mk = |seed: usize| -> Vec<f64> {
            (0..ctx.slots())
                .map(|i| ((i + seed) % 5) as f64 * 0.2)
                .collect()
        };
        let diags = vec![
            Some(enc.encode_at_prime_scale_ws(&mk(1), 2)),
            None,
            Some(enc.encode_at_prime_scale_ws(&mk(2), 2)),
        ];
        let bias = [enc.encode(&mk(3), ctx.scale(), 1, false)];
        let same = |a: &Plaintext, b: &Plaintext| {
            assert_eq!(a.poly, b.poly);
            assert_eq!(a.scale.to_bits(), b.scale.to_bits());
        };
        for bias in [Some(&bias[..]), None] {
            store.save_prepared("conv1", 2, &diags, bias).unwrap();
            let (level, back, bias_back) = store.load_prepared("conv1").unwrap();
            assert_eq!(level, 2);
            assert_eq!(back.len(), diags.len());
            for (got, want) in back.iter().zip(&diags) {
                assert_eq!(got.is_some(), want.is_some());
                if let (Some(got), Some(want)) = (got, want) {
                    same(got, want);
                }
            }
            assert_eq!(bias_back.is_some(), bias.is_some());
            for (got, want) in bias_back.iter().flatten().zip(bias.into_iter().flatten()) {
                same(got, want);
            }
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn malformed_prepared_files_error_not_panic() {
        let dir = test_dir("orion_prepared_malformed_test");
        let store = DiagStore::open(&dir).unwrap();
        let header = |n: u32| {
            let mut b = PREP_MAGIC.to_vec();
            b.extend_from_slice(&2u64.to_le_bytes()); // level
            b.extend_from_slice(&n.to_le_bytes()); // diagonal count
            b
        };
        let mut overflow = header(1);
        overflow.push(1); // present
        overflow.extend_from_slice(&1.0f64.to_bits().to_le_bytes()); // scale
        overflow.push(1); // eval form
        overflow.extend_from_slice(&u32::MAX.to_le_bytes()); // n_limbs
        overflow.extend_from_slice(&(1u64 << 61).to_le_bytes()); // degree
        overflow.push(1); // special limb count
        let mut bad_flag = header(1);
        bad_flag.push(7);
        let mut bias_past_end = header(0);
        bias_past_end.extend_from_slice(&(u32::MAX - 1).to_le_bytes());
        let cases: [(&str, &[u8]); 7] = [
            ("empty file", b""),
            ("magic only", PREP_MAGIC),
            ("wrong magic", b"ORIONPP1\0\0\0\0\0\0\0\0\0\0\0\0"),
            ("count past the end", &header(3)),
            ("overflow-bait plaintext header", &overflow),
            ("bad present flag", &bad_flag),
            ("bias count past the end", &bias_past_end),
        ];
        for (what, bytes) in cases {
            std::fs::write(store.prepared_path("bad"), bytes).unwrap();
            match store.load_prepared("bad") {
                Err(StoreError::Malformed { .. }) => {}
                other => panic!("{what}: expected Malformed, got {:?}", other.map(|_| ())),
            }
        }
        std::fs::remove_dir_all(dir).ok();
    }
}
