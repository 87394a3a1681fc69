//! Content-addressed identity for compile results.
//!
//! The compile cache (`crates/compile-service`) holds
//! [`SpmdPlan`](crate::SpmdPlan)s keyed by *what was compiled*, not *where
//! it came from*: the key material is the canonicalized program text plus
//! the pipeline options that shape the plan (partition geometry, ghost
//! distance, sync optimization) plus [`PLAN_SCHEMA_VERSION`] so a schema
//! bump invalidates every entry at once. Host paths, file
//! timestamps, and map iteration order never enter the digest — two
//! machines compiling the same source with the same options produce the
//! same key, byte for byte.
//!
//! Hashing is a hand-rolled FNV-1a-128. `std`'s `DefaultHasher` is
//! SipHash with process-random keys, so its digests differ between
//! runs; FNV is stable across processes, architectures, and releases
//! (the constants below are fixed by the algorithm, not by us).

use crate::plan::EnginePref;
use crate::plan_json::PLAN_SCHEMA_VERSION;
use std::fmt;

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// FNV-1a-128 over `bytes`. Deterministic across processes — unlike
/// `std::collections::hash_map::DefaultHasher`, which seeds SipHash
/// randomly per process and so is useless for content addressing.
pub fn stable_hash_128(bytes: &[u8]) -> u128 {
    let mut h = FNV128_OFFSET;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(FNV128_PRIME);
    }
    h
}

/// Canonicalize program text for hashing: normalize CRLF and lone CR to
/// LF, and drop trailing whitespace on each line. Editors and transports
/// disagree about exactly these bytes; none of them change what the
/// frontend sees, so none of them may change the cache key.
pub fn canonicalize_source(source: &str) -> String {
    let mut out = String::with_capacity(source.len());
    for line in source.replace("\r\n", "\n").replace('\r', "\n").split('\n') {
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// The content-addressed identity of one compile request.
///
/// Built from the *inputs* to the pipeline, never from its outputs or
/// environment: no file paths, no timestamps, no hash-map iteration
/// order. Equal keys ⇒ the pipeline would produce the identical
/// [`SpmdPlan`](crate::SpmdPlan) and generated source.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// FNV-1a-128 of the canonicalized program text.
    pub source_digest: u128,
    /// Ranks along each partitioned grid axis, in axis order.
    pub parts: Vec<usize>,
    /// Dependence-distance *override*; `None` lets the source's
    /// `!$acf distance` directive (or the default) decide — and the
    /// directive text is already inside `source_digest`, so `None` still
    /// keys deterministically.
    pub distance: Option<usize>,
    /// Whether redundant-sync elimination ran.
    pub optimize: bool,
    /// Requested worker threads per rank (embedded in the plan JSON).
    pub threads: u32,
    /// [`PLAN_SCHEMA_VERSION`] at key construction time.
    pub schema_version: i64,
}

impl PlanKey {
    /// Build the key for `source` compiled with the given options. The
    /// source is canonicalized first (see [`canonicalize_source`]).
    /// `_engine` is a compatibility shim the key ignores, removed with
    /// ROADMAP item 1's `[benchmark]` PR.
    pub fn new(
        source: &str,
        parts: &[usize],
        distance: Option<usize>,
        optimize: bool,
        _engine: EnginePref,
        threads: u32,
    ) -> PlanKey {
        PlanKey {
            source_digest: stable_hash_128(canonicalize_source(source).as_bytes()),
            parts: parts.to_vec(),
            distance,
            optimize,
            threads,
            schema_version: PLAN_SCHEMA_VERSION,
        }
    }

    /// The 32-hex-character digest naming this key: FNV-1a-128 over a
    /// canonical rendering of every field in a fixed order. Filesystem-
    /// and wire-safe; used as the cache entry name.
    pub fn digest(&self) -> String {
        let mut material = String::new();
        material.push_str("acfd-plan-key:v3\n");
        material.push_str(&format!("source:{:032x}\n", self.source_digest));
        material.push_str("parts:");
        for (i, p) in self.parts.iter().enumerate() {
            if i > 0 {
                material.push(',');
            }
            material.push_str(&p.to_string());
        }
        material.push('\n');
        match self.distance {
            Some(d) => material.push_str(&format!("distance:{d}\n")),
            None => material.push_str("distance:default\n"),
        }
        material.push_str(&format!("optimize:{}\n", self.optimize));
        material.push_str(&format!("threads:{}\n", self.threads));
        material.push_str(&format!("schema:{}\n", self.schema_version));
        format!("{:032x}", stable_hash_128(material.as_bytes()))
    }
}

impl fmt::Display for PlanKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.digest())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors_are_stable() {
        // Golden values pin the algorithm: a random-seeded hasher (or an
        // accidental constant change) fails this in any process.
        assert_eq!(stable_hash_128(b""), FNV128_OFFSET);
        assert_eq!(
            format!("{:032x}", stable_hash_128(b"a")),
            "d228cb696f1a8caf78912b704e4a8964"
        );
        assert_eq!(
            format!("{:032x}", stable_hash_128(b"foobar")),
            "343e1662793c64bf6f0d3597ba446f18"
        );
    }

    #[test]
    fn canonicalization_erases_line_ending_and_trailing_space_noise() {
        let unix = "program t\n  x = 1\nend\n";
        let dos = "program t\r\n  x = 1\r\nend\r\n";
        let mac = "program t\r  x = 1\rend\r";
        let trailing = "program t   \n  x = 1\t\nend\n";
        let a = PlanKey::new(unix, &[2, 2], Some(1), true, EnginePref::Kernel, 1);
        assert_eq!(
            a,
            PlanKey::new(dos, &[2, 2], Some(1), true, EnginePref::Kernel, 1)
        );
        assert_eq!(
            a,
            PlanKey::new(mac, &[2, 2], Some(1), true, EnginePref::Kernel, 1)
        );
        assert_eq!(
            a,
            PlanKey::new(trailing, &[2, 2], Some(1), true, EnginePref::Kernel, 1)
        );
        // ...but real edits change the key
        assert_ne!(
            a,
            PlanKey::new(
                "program t\n  x = 2\nend\n",
                &[2, 2],
                Some(1),
                true,
                EnginePref::Kernel,
                1
            )
        );
    }

    #[test]
    fn every_option_is_key_material() {
        let src = "program t\nend\n";
        let base = PlanKey::new(src, &[2, 2], Some(1), true, EnginePref::Kernel, 1);
        assert_ne!(
            base.digest(),
            PlanKey::new(src, &[4, 1], Some(1), true, EnginePref::Kernel, 1).digest()
        );
        assert_ne!(
            base.digest(),
            PlanKey::new(src, &[2, 2], Some(2), true, EnginePref::Kernel, 1).digest()
        );
        assert_ne!(
            base.digest(),
            PlanKey::new(src, &[2, 2], Some(1), false, EnginePref::Kernel, 1).digest()
        );
        assert_ne!(
            base.digest(),
            PlanKey::new(src, &[2, 2], None, true, EnginePref::Kernel, 1).digest(),
            "an explicit override of 1 and `no override` are distinct keys"
        );
        assert_ne!(
            PlanKey::new(src, &[2, 2], Some(1), true, EnginePref::Kernel, 1).digest(),
            PlanKey::new(src, &[2, 2], Some(1), true, EnginePref::Kernel, 4).digest(),
            "thread count is key material (the plan JSON embeds it)"
        );
        let mut stale = base.clone();
        stale.schema_version += 1;
        assert_ne!(base.digest(), stale.digest());
    }

    #[test]
    fn parts_ordering_is_significant_but_rendering_is_unambiguous() {
        let src = "program t\nend\n";
        // [12] vs [1,2] must not collide through string concatenation
        assert_ne!(
            PlanKey::new(src, &[12], Some(1), true, EnginePref::Kernel, 1).digest(),
            PlanKey::new(src, &[1, 2], Some(1), true, EnginePref::Kernel, 1).digest()
        );
        assert_ne!(
            PlanKey::new(src, &[2, 1], Some(1), true, EnginePref::Kernel, 1).digest(),
            PlanKey::new(src, &[1, 2], Some(1), true, EnginePref::Kernel, 1).digest()
        );
    }

    #[test]
    fn digest_is_golden() {
        // A golden digest proves cross-process determinism: any
        // process-random seed, map-order dependence, or host-path leak
        // would break it. If this fails after an intentional key-material
        // change, bump "acfd-plan-key:v3" and re-pin.
        let key = PlanKey {
            source_digest: stable_hash_128(b"program t\nend\n"),
            parts: vec![2, 2],
            distance: Some(1),
            optimize: true,
            threads: 4,
            schema_version: 3,
        };
        assert_eq!(key.digest(), "5cba1db14289ebb2d02dbdeabdb2f954");
    }
}
