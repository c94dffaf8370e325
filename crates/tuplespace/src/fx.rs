//! rustc-hash-style multiplicative hasher for the crate's internal maps:
//! the space's field indexes and entry tables, and the process-wide shape
//! table. Their keys are entry ids, value hashes and short name lists,
//! where SipHash's DoS resistance costs more than the whole map
//! operation. None of them is exposed to an unbounded untrusted key
//! distribution: the space's maps are keyed by what was written, and the
//! shape table — whose keys do come off the wire — is capped in entries,
//! names and name length (see `shape.rs`).

/// The hasher.
#[derive(Default, Clone)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = 0u64;
        for &b in chunks.remainder() {
            tail = (tail << 8) | u64::from(b);
        }
        self.mix(tail ^ bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]-keyed maps and sets.
#[derive(Debug, Default, Clone)]
pub(crate) struct FxBuild;

impl std::hash::BuildHasher for FxBuild {
    type Hasher = FxHasher;

    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}
