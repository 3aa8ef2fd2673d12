//! Helpers shared by the `hijack` integration tests.

use bgpsim_topology::gen::{generate, GeneratedInternet, InternetParams};

/// A 150-AS generated internet without the island region and with one
/// ladder: small enough for a proptest case, deep enough to race over.
pub fn tiny_internet(seed: u64) -> GeneratedInternet {
    let mut p = InternetParams::sized(150);
    p.island = None;
    p.ladder_count = 1;
    generate(&p, seed)
}
