//! Disk storage for encoded matrix diagonals (paper §6 "Handling large data
//! structures").
//!
//! "Large datasets and networks require hundreds of gigabytes of rotation
//! keys and matrix diagonals. Orion provides support to store these large
//! data structures to disk … loaded dynamically during inference to
//! minimize the size of transient data." The paper uses HDF5; we use a
//! small self-describing binary format (`bytes`-based) with one file per
//! ciphertext-block so blocks can be loaded lazily during inference.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use orion_ckks::encrypt::Plaintext;
use orion_ckks::poly::{Form, RnsPoly};

const PREP_MAGIC: &[u8; 8] = b"ORIONPP1";

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
    fn malformed(what: impl Into<String>) -> Self {
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

/// On-disk cache of a prepared layer: one file of *encoded* diagonals
/// (`k → plaintext`) per `(out_block, in_block)` pair, loadable
/// independently, plus one metadata file (level, block index, bias
/// plaintexts) — what the pager (`crate::paged`) spills and faults in.
pub struct DiagStore {
    dir: std::path::PathBuf,
}

impl DiagStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<std::path::PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    fn prepared_block_path(&self, layer: &str, i: u32, j: u32) -> std::path::PathBuf {
        self.dir.join(format!("{layer}.p{i}_{j}.prep"))
    }

    fn prepared_meta_path(&self, layer: &str) -> std::path::PathBuf {
        self.dir.join(format!("{layer}.prep.meta"))
    }

    /// Persists one prepared block's *encoded* diagonals (`k → plaintext`),
    /// so setup-time encodings survive process restarts and large layers
    /// can be spilled out of memory (paper §6's on-disk diagonals, but at
    /// the post-encode stage the serving path actually consumes).
    pub fn save_prepared_block(
        &self,
        layer: &str,
        i: u32,
        j: u32,
        diags: &std::collections::HashMap<u32, Plaintext>,
    ) -> Result<(), StoreError> {
        let mut b = BytesMut::new();
        b.put_u32_le(diags.len() as u32);
        let mut keys: Vec<&u32> = diags.keys().collect();
        keys.sort();
        for &k in keys {
            b.put_u32_le(k);
            put_plaintext(&mut b, &diags[&k]);
        }
        std::fs::write(self.prepared_block_path(layer, i, j), &b)?;
        Ok(())
    }

    /// Loads one prepared block's encoded diagonals.
    pub fn load_prepared_block(
        &self,
        layer: &str,
        i: u32,
        j: u32,
    ) -> Result<std::collections::HashMap<u32, Plaintext>, StoreError> {
        let buf = std::fs::read(self.prepared_block_path(layer, i, j))?;
        let mut data = Bytes::from(buf);
        if data.remaining() < 4 {
            return Err(StoreError::malformed("prepared block truncated"));
        }
        let n = data.get_u32_le() as usize;
        // capacity from untrusted input: reserve lazily past a sane bound
        let mut out = std::collections::HashMap::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            if data.remaining() < 4 {
                return Err(StoreError::malformed("prepared block truncated"));
            }
            let k = data.get_u32_le();
            let pt =
                get_plaintext(&mut data).ok_or_else(|| StoreError::malformed("bad plaintext"))?;
            out.insert(k, pt);
        }
        Ok(out)
    }

    /// Persists a prepared layer's metadata: level, block index and bias
    /// plaintexts.
    pub fn save_prepared_meta(
        &self,
        layer: &str,
        level: usize,
        blocks: &[(u32, u32)],
        bias: Option<&[Plaintext]>,
    ) -> Result<(), StoreError> {
        let mut b = BytesMut::new();
        b.put_slice(PREP_MAGIC);
        b.put_u64_le(level as u64);
        b.put_u32_le(blocks.len() as u32);
        for &(i, j) in blocks {
            b.put_u32_le(i);
            b.put_u32_le(j);
        }
        match bias {
            None => b.put_u32_le(u32::MAX),
            Some(pts) => {
                b.put_u32_le(pts.len() as u32);
                for pt in pts {
                    put_plaintext(&mut b, pt);
                }
            }
        }
        std::fs::write(self.prepared_meta_path(layer), &b)?;
        Ok(())
    }

    /// Loads prepared-layer metadata written by
    /// [`DiagStore::save_prepared_meta`]: `(level, block pairs, bias)`.
    #[allow(clippy::type_complexity)]
    pub fn load_prepared_meta(
        &self,
        layer: &str,
    ) -> Result<(usize, Vec<(u32, u32)>, Option<Vec<Plaintext>>), StoreError> {
        let buf = std::fs::read(self.prepared_meta_path(layer))?;
        let mut data = Bytes::from(buf);
        if data.remaining() < 8 + 8 + 4 || &data.copy_to_bytes(8)[..] != PREP_MAGIC {
            return Err(StoreError::malformed("bad prepared meta header"));
        }
        let level = data.get_u64_le() as usize;
        let n_blocks = data.get_u32_le() as usize;
        let mut blocks = Vec::with_capacity(n_blocks.min(1 << 16));
        for _ in 0..n_blocks {
            if data.remaining() < 8 {
                return Err(StoreError::malformed("prepared meta truncated"));
            }
            blocks.push((data.get_u32_le(), data.get_u32_le()));
        }
        if data.remaining() < 4 {
            return Err(StoreError::malformed("prepared meta truncated"));
        }
        let n_bias = data.get_u32_le();
        let bias = if n_bias == u32::MAX {
            None
        } else {
            let mut pts = Vec::with_capacity((n_bias as usize).min(1 << 16));
            for _ in 0..n_bias {
                pts.push(
                    get_plaintext(&mut data).ok_or_else(|| StoreError::malformed("bad bias"))?,
                );
            }
            Some(pts)
        };
        Ok((level, blocks, bias))
    }
}

/// Serializes an encoded plaintext: scale, form, limb data, special limb.
fn put_plaintext(b: &mut BytesMut, pt: &Plaintext) {
    b.put_f64_le(pt.scale);
    b.put_u8(match pt.poly.form {
        Form::Coeff => 0,
        Form::Eval => 1,
    });
    b.put_u32_le(pt.poly.limbs.len() as u32);
    let degree = pt.poly.limbs.first().map(Vec::len).unwrap_or(0);
    b.put_u64_le(degree as u64);
    for limb in &pt.poly.limbs {
        for &x in limb {
            b.put_u64_le(x);
        }
    }
    match &pt.poly.special {
        None => b.put_u8(0),
        Some(sp) => {
            b.put_u8(1);
            for &x in sp {
                b.put_u64_le(x);
            }
        }
    }
}

/// Inverse of [`put_plaintext`]; returns `None` on malformed input.
fn get_plaintext(data: &mut Bytes) -> Option<Plaintext> {
    if data.remaining() < 8 + 1 + 4 + 8 {
        return None;
    }
    let scale = data.get_f64_le();
    let form = match data.get_u8() {
        0 => Form::Coeff,
        1 => Form::Eval,
        _ => return None,
    };
    let n_limbs = data.get_u32_le() as usize;
    let degree = data.get_u64_le() as usize;
    // overflow-safe bound: corrupt headers must yield None, not a panic
    let limb_bytes = n_limbs.checked_mul(degree).and_then(|n| n.checked_mul(8))?;
    if data.remaining() < limb_bytes {
        return None;
    }
    let limbs: Vec<Vec<u64>> = (0..n_limbs)
        .map(|_| (0..degree).map(|_| data.get_u64_le()).collect())
        .collect();
    if data.remaining() < 1 {
        return None;
    }
    let special = match data.get_u8() {
        0 => None,
        1 => {
            if data.remaining() < 8 * degree {
                return None;
            }
            Some((0..degree).map(|_| data.get_u64_le()).collect())
        }
        _ => return None,
    };
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

    #[test]
    fn prepared_block_and_meta_roundtrip() {
        use orion_ckks::encoder::Encoder;
        use orion_ckks::params::{CkksParams, Context};
        let ctx = Context::new(CkksParams::tiny());
        let enc = Encoder::new(ctx.clone());
        let dir = std::env::temp_dir().join("orion_prepared_store_test");
        let store = DiagStore::open(&dir).unwrap();

        let mk = |seed: usize| -> Vec<f64> {
            (0..ctx.slots())
                .map(|i| ((i + seed) % 5) as f64 * 0.2)
                .collect()
        };
        let mut diags = std::collections::HashMap::new();
        diags.insert(3u32, enc.encode_at_prime_scale_ws(&mk(1), 2));
        diags.insert(9u32, enc.encode_at_prime_scale_ws(&mk(2), 2));
        store.save_prepared_block("conv1", 0, 1, &diags).unwrap();
        let back = store.load_prepared_block("conv1", 0, 1).unwrap();
        assert_eq!(back.len(), 2);
        for (k, pt) in &diags {
            assert_eq!(back[k].poly, pt.poly, "diag {k} plaintext diverged");
            assert_eq!(back[k].scale, pt.scale);
        }

        let bias = vec![enc.encode(&mk(3), ctx.scale(), 1, false)];
        store
            .save_prepared_meta("conv1", 2, &[(0, 1)], Some(&bias))
            .unwrap();
        let (level, blocks, bias_back) = store.load_prepared_meta("conv1").unwrap();
        assert_eq!(level, 2);
        assert_eq!(blocks, vec![(0, 1)]);
        assert_eq!(bias_back.unwrap()[0].poly, bias[0].poly);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn malformed_prepared_files_error_not_panic() {
        let dir = std::env::temp_dir().join("orion_prepared_malformed_test");
        let store = DiagStore::open(&dir).unwrap();
        // empty file: count header missing
        std::fs::write(store.prepared_block_path("bad", 0, 0), b"").unwrap();
        assert!(store.load_prepared_block("bad", 0, 0).is_err());
        // plausible count, absurd plaintext header (overflow-bait sizes)
        let mut b = BytesMut::new();
        b.put_u32_le(1); // one diagonal
        b.put_u32_le(3); // k
        b.put_f64_le(1.0); // scale
        b.put_u8(1); // eval form
        b.put_u32_le(u32::MAX); // n_limbs
        b.put_u64_le(1 << 61); // degree
        std::fs::write(store.prepared_block_path("bad", 0, 1), &b).unwrap();
        assert!(store.load_prepared_block("bad", 0, 1).is_err());
        // truncated meta
        std::fs::write(store.prepared_meta_path("bad"), b"ORIONPP1").unwrap();
        assert!(store.load_prepared_meta("bad").is_err());
        std::fs::remove_dir_all(dir).ok();
    }
}
