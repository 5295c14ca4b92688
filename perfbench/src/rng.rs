//! Seeded input streams. Everything a workload sends to the program is drawn
//! from one of these, so a seed fixes the inputs exactly.

/// splitmix64: small, seedable, and plenty to shuffle terminals and edges.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` so two consumers of
    /// one seed (say, two client connections) draw different sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x5851_f42d_4c95_7f2d));
        r.next_u64();
        r
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        self.next_u64() % n
    }

    /// Two distinct nodes of an `n`-node graph (`n ≥ 2`).
    pub fn pair(&mut self, n: usize) -> (u32, u32) {
        let n = n as u64;
        let s = self.below(n);
        let t = (s + 1 + self.below(n - 1)) % n;
        (s as u32, t as u32)
    }
}
