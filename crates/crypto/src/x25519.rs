//! X25519 Diffie–Hellman (RFC 7748), implemented from scratch.
//!
//! The deployed systems the paper surveys (Onion Routing, Freedom) use
//! public-key cryptography to establish per-hop keys; the offline build
//! environment has no crypto crates, so this module provides Curve25519
//! scalar multiplication over GF(2²⁵⁵ − 19) with 51-bit limbs, validated
//! against the RFC 7748 test vectors (including the iterated vector).
//!
//! There are two paths, one per kind of base:
//!
//! * **Variable base** ([`x25519`], [`shared_secret`]): the
//!   constant-structure Montgomery ladder of RFC 7748 §5, one
//!   differential add-and-double per scalar bit with a masked `cswap`.
//! * **Fixed base** ([`public_key`]): a comb over the Ed25519 base point,
//!   which maps to `u = 9` under the birational map `u = (1 + y)/(1 − y)`.
//!   The clamped scalar is recoded into 64 signed radix-16 digits
//!   `e_i ∈ [−8, 8]`; a table holds `j·256ⁱ·B` for `i < 32`, `j ≤ 8` as
//!   affine Niels points `(y + x, y − x, 2d·x·y)`. The odd digits are
//!   added (32 mixed additions), the sum is multiplied by 16 (4
//!   doublings), the even digits are added (32 more), and the Edwards
//!   point is mapped back to `u = (Z + Y)/(Z − Y)`. The ~30 KB table is
//!   built once per process, on first use.
//!
//! Both paths run the same sequence of operations and memory accesses for
//! every scalar. The ladder swaps with a mask; the comb reads all 8
//! entries of a table row and keeps the wanted one with masked moves,
//! then negates it by mask. No branch or index depends on a secret.
//!
//! **Limb bounds.** A field element is five `u64` limbs of nominally 51
//! bits. `mul` and `square` accept limbs below 2⁵⁴ (so the widened
//! products and the folded top carry fit) and return limbs below
//! 2⁵¹ + 2¹³ ("reduced"); so do `mul_small` and `reduce`. `add` and `sub`
//! are lazy: no carry pass. `add` returns the limb-wise sum; `sub`
//! computes `a + 2p − b`, which needs a reduced `b` and adds below 2⁵² to
//! `a`. Every caller keeps the inputs of `mul` and `square` below 2⁵⁴;
//! test builds assert each of these bounds on every call.
//!
//! [`crate::handshake`] builds ephemeral→static key agreement for onion
//! layer keys on top of this primitive.

#![allow(clippy::needless_range_loop)] // fixed-width limb arithmetic

use std::sync::OnceLock;

/// A field element of GF(2^255 - 19) in radix-2^51 representation.
#[derive(Clone, Copy, Debug)]
struct Fe([u64; 5]);

const MASK51: u64 = (1u64 << 51) - 1;

/// Every limb of a `mul`, `square` or `mul_small` input, and so of every
/// `add` or `sub` result, stays below this.
const MUL_INPUT: u64 = 1 << 54;

/// Every limb of a `mul`, `square`, `mul_small` or `reduce` result is
/// below this, and so is every limb of a `sub` right-hand side.
const REDUCED: u64 = (1 << 51) + (1 << 13);

impl Fe {
    const ZERO: Fe = Fe([0; 5]);
    const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let load = |b: &[u8]| -> u64 {
            let mut x = [0u8; 8];
            x[..b.len()].copy_from_slice(b);
            u64::from_le_bytes(x)
        };
        let mut h = [0u64; 5];
        h[0] = load(&bytes[0..8]) & MASK51;
        h[1] = (load(&bytes[6..14]) >> 3) & MASK51;
        h[2] = (load(&bytes[12..20]) >> 6) & MASK51;
        h[3] = (load(&bytes[19..27]) >> 1) & MASK51;
        h[4] = (load(&bytes[24..32]) >> 12) & MASK51;
        Fe(h)
    }

    fn to_bytes(mut self) -> [u8; 32] {
        self = self.reduce();
        // final canonical reduction: subtract p if >= p
        let mut h = self.0;
        // compute h + 19, see if it carries past 2^255
        let mut q = (h[0] + 19) >> 51;
        q = (h[1] + q) >> 51;
        q = (h[2] + q) >> 51;
        q = (h[3] + q) >> 51;
        q = (h[4] + q) >> 51;
        h[0] += 19 * q;
        let mut carry = h[0] >> 51;
        h[0] &= MASK51;
        for i in 1..5 {
            h[i] += carry;
            carry = h[i] >> 51;
            h[i] &= MASK51;
        }
        // now h is canonical (the overflow bit was discarded mod 2^255)
        let mut out = [0u8; 32];
        let w0 = h[0] | (h[1] << 51);
        let w1 = (h[1] >> 13) | (h[2] << 38);
        let w2 = (h[2] >> 26) | (h[3] << 25);
        let w3 = (h[3] >> 39) | (h[4] << 12);
        out[0..8].copy_from_slice(&w0.to_le_bytes());
        out[8..16].copy_from_slice(&w1.to_le_bytes());
        out[16..24].copy_from_slice(&w2.to_le_bytes());
        out[24..32].copy_from_slice(&w3.to_le_bytes());
        out
    }

    /// In test builds, asserts that every limb is below `bound`.
    #[inline(always)]
    fn bounded(self, bound: u64, op: &str) -> Fe {
        #[cfg(test)]
        assert!(
            self.0.iter().all(|&limb| limb < bound),
            "{op}: limb bound {bound:#x} exceeded by {self:?}"
        );
        let _ = (bound, op);
        self
    }

    /// Weak reduction: one carry pass, leaving the limbs reduced.
    fn reduce(self) -> Fe {
        let mut h = self.0;
        let mut carry = h[4] >> 51;
        h[4] &= MASK51;
        h[0] += 19 * carry;
        for i in 0..4 {
            carry = h[i] >> 51;
            h[i] &= MASK51;
            h[i + 1] += carry;
        }
        carry = h[4] >> 51;
        h[4] &= MASK51;
        h[0] += 19 * carry;
        Fe(h)
    }

    /// Lazy sum: no carry pass.
    #[inline(always)]
    fn add(self, rhs: Fe) -> Fe {
        let mut h = self.0;
        for i in 0..5 {
            h[i] += rhs.0[i];
        }
        Fe(h).bounded(MUL_INPUT, "add")
    }

    /// Lazy difference `self + 2p − rhs`: no carry pass. `rhs` must be
    /// reduced, which keeps every limb of `2p − rhs` positive and below
    /// 2⁵².
    #[inline(always)]
    fn sub(self, rhs: Fe) -> Fe {
        rhs.bounded(REDUCED, "sub rhs");
        Fe([
            self.0[0] + 0xFFFFFFFFFFFDA - rhs.0[0],
            self.0[1] + 0xFFFFFFFFFFFFE - rhs.0[1],
            self.0[2] + 0xFFFFFFFFFFFFE - rhs.0[2],
            self.0[3] + 0xFFFFFFFFFFFFE - rhs.0[3],
            self.0[4] + 0xFFFFFFFFFFFFE - rhs.0[4],
        ])
        .bounded(MUL_INPUT, "sub")
    }

    /// Carries five 128-bit column sums into reduced limbs.
    #[inline(always)]
    fn carry_wide(t: [u128; 5]) -> Fe {
        let mut h = [0u64; 5];
        let mut carry: u128 = 0;
        for i in 0..5 {
            let v = t[i] + carry;
            h[i] = (v as u64) & MASK51;
            carry = v >> 51;
        }
        // the top column has no ×19 terms, so carry·19 fits in 64 bits
        h[0] += (carry as u64) * 19;
        h[1] += h[0] >> 51;
        h[0] &= MASK51;
        Fe(h).bounded(REDUCED, "carry")
    }

    #[inline(always)]
    fn mul(self, rhs: Fe) -> Fe {
        let a = self.bounded(MUL_INPUT, "mul lhs").0;
        let b = rhs.bounded(MUL_INPUT, "mul rhs").0;
        let a1_19 = a[1] * 19;
        let a2_19 = a[2] * 19;
        let a3_19 = a[3] * 19;
        let a4_19 = a[4] * 19;
        let m = |x: u64, y: u64| x as u128 * y as u128;
        Fe::carry_wide([
            m(a[0], b[0]) + m(a4_19, b[1]) + m(a3_19, b[2]) + m(a2_19, b[3]) + m(a1_19, b[4]),
            m(a[0], b[1]) + m(a[1], b[0]) + m(a4_19, b[2]) + m(a3_19, b[3]) + m(a2_19, b[4]),
            m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a4_19, b[3]) + m(a3_19, b[4]),
            m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a4_19, b[4]),
            m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]),
        ])
    }

    /// `self²` from 15 products: each cross term is computed once and
    /// doubled.
    #[inline(always)]
    fn square(self) -> Fe {
        let a = self.bounded(MUL_INPUT, "square").0;
        let a0_2 = a[0] * 2;
        let a1_2 = a[1] * 2;
        let a2_2 = a[2] * 2;
        let a3_19 = a[3] * 19;
        let a4_19 = a[4] * 19;
        let a4_38 = a4_19 * 2;
        let m = |x: u64, y: u64| x as u128 * y as u128;
        Fe::carry_wide([
            m(a[0], a[0]) + m(a1_2, a4_19) + m(a2_2, a3_19),
            m(a0_2, a[1]) + m(a2_2, a4_19) + m(a[3], a3_19),
            m(a0_2, a[2]) + m(a[1], a[1]) + m(a[3], a4_38),
            m(a0_2, a[3]) + m(a1_2, a[2]) + m(a[4], a4_19),
            m(a0_2, a[4]) + m(a1_2, a[3]) + m(a[2], a[2]),
        ])
    }

    /// `self^(2^k)`: `k` repeated squarings.
    fn pow2k(self, k: u32) -> Fe {
        let mut t = self;
        for _ in 0..k {
            t = t.square();
        }
        t
    }

    /// `self · k` for a small constant `k < 2¹⁷`, with the one carry pass
    /// the 64-bit products need.
    #[inline(always)]
    fn mul_small(self, k: u64) -> Fe {
        let a = self.bounded(MUL_INPUT, "mul_small").0;
        let m = |x: u64| x as u128 * k as u128;
        Fe::carry_wide([m(a[0]), m(a[1]), m(a[2]), m(a[3]), m(a[4])])
    }

    /// Inversion via Fermat: x^(p-2).
    fn invert(self) -> Fe {
        // addition chain from the curve25519 reference implementation
        let z = self;
        let z2 = z.square(); // 2
        let z9 = z2.pow2k(2).mul(z); // 9
        let z11 = z9.mul(z2); // 11
        let z2_5_0 = z11.square().mul(z9); // 2^5 - 2^0 = 31
        let z2_10_0 = z2_5_0.pow2k(5).mul(z2_5_0);
        let z2_20_0 = z2_10_0.pow2k(10).mul(z2_10_0);
        let z2_40_0 = z2_20_0.pow2k(20).mul(z2_20_0);
        let z2_50_0 = z2_40_0.pow2k(10).mul(z2_10_0);
        let z2_100_0 = z2_50_0.pow2k(50).mul(z2_50_0);
        let z2_200_0 = z2_100_0.pow2k(100).mul(z2_100_0);
        let z2_250_0 = z2_200_0.pow2k(50).mul(z2_50_0);
        z2_250_0.pow2k(5).mul(z11) // 2^255 - 21 = p - 2
    }

    /// Constant-structure conditional swap.
    #[inline(always)]
    fn cswap(a: &mut Fe, b: &mut Fe, swap: u64) {
        let mask = 0u64.wrapping_sub(swap);
        for i in 0..5 {
            let x = mask & (a.0[i] ^ b.0[i]);
            a.0[i] ^= x;
            b.0[i] ^= x;
        }
    }

    /// Constant-structure conditional move: `self = other` where `mask`
    /// is all ones, unchanged where it is zero.
    #[inline(always)]
    fn cmov(&mut self, other: &Fe, mask: u64) {
        for i in 0..5 {
            self.0[i] ^= mask & (self.0[i] ^ other.0[i]);
        }
    }
}

/// Clamps a 32-byte scalar per RFC 7748.
fn clamp(scalar: &[u8; 32]) -> [u8; 32] {
    let mut s = *scalar;
    s[0] &= 248;
    s[31] &= 127;
    s[31] |= 64;
    s
}

/// X25519 scalar multiplication: `scalar · u` on Curve25519
/// (the `X25519(k, u)` function of RFC 7748 §5).
pub fn x25519(scalar: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
    let k = clamp(scalar);
    let mut u_bytes = *u;
    u_bytes[31] &= 127; // mask the high bit per RFC 7748
    let x1 = Fe::from_bytes(&u_bytes);

    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = 0u64;

    for t in (0..255).rev() {
        let k_t = ((k[t / 8] >> (t % 8)) & 1) as u64;
        swap ^= k_t;
        Fe::cswap(&mut x2, &mut x3, swap);
        Fe::cswap(&mut z2, &mut z3, swap);
        swap = k_t;
        (x2, z2, x3, z3) = ladder_step(x1, x2, z2, x3, z3);
    }
    Fe::cswap(&mut x2, &mut x3, swap);
    Fe::cswap(&mut z2, &mut z3, swap);
    x2.mul(z2.invert()).to_bytes()
}

/// One differential add-and-double: `(x2 : z2)` doubles and `(x3 : z3)`
/// becomes their sum, given their difference `x1`. The inputs are
/// reduced (initial values or products), so every `add` and `sub` stays
/// below 2⁵³ and may feed a product; so are the outputs.
#[inline(always)]
fn ladder_step(x1: Fe, x2: Fe, z2: Fe, x3: Fe, z3: Fe) -> (Fe, Fe, Fe, Fe) {
    let a = x2.add(z2);
    let aa = a.square();
    let b = x2.sub(z2);
    let bb = b.square();
    let e = aa.sub(bb);
    let da = x3.sub(z3).mul(a);
    let cb = x3.add(z3).mul(b);
    (
        aa.mul(bb),
        e.mul(aa.add(e.mul_small(121665))),
        da.add(cb).square(),
        x1.mul(da.sub(cb).square()),
    )
}

/// The curve's base point `u = 9`.
pub const BASEPOINT: [u8; 32] = {
    let mut b = [0u8; 32];
    b[0] = 9;
    b
};

/// An affine Edwards point in the form the comb adds:
/// `(y + x, y − x, 2d·x·y)`.
#[derive(Clone, Copy)]
struct Niels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

impl Niels {
    /// The neutral element `(x, y) = (0, 1)`.
    const IDENTITY: Niels = Niels {
        y_plus_x: Fe::ONE,
        y_minus_x: Fe::ONE,
        xy2d: Fe::ZERO,
    };

    #[inline(always)]
    fn cmov(&mut self, other: &Niels, mask: u64) {
        self.y_plus_x.cmov(&other.y_plus_x, mask);
        self.y_minus_x.cmov(&other.y_minus_x, mask);
        self.xy2d.cmov(&other.xy2d, mask);
    }
}

/// An Edwards point `(X : Y : Z : T)` in extended coordinates on
/// `−x² + y² = 1 + d·x²·y²`: `x = X/Z`, `y = Y/Z`, `x·y = T/Z`. All four
/// coordinates are products, so reduced.
#[derive(Clone, Copy)]
struct Extended {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// The result of an addition or doubling, `x = X/Z`, `y = Y/T`, before
/// the four products that bring it back to [`Extended`]. Its
/// coordinates are lazy sums, below 2⁵⁴.
struct Completed {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

impl Extended {
    const IDENTITY: Extended = Extended {
        x: Fe::ZERO,
        y: Fe::ONE,
        z: Fe::ONE,
        t: Fe::ZERO,
    };

    /// Mixed addition of an affine Niels point (7 products with the
    /// conversion back).
    #[inline(always)]
    fn add_niels(&self, q: &Niels) -> Extended {
        let pp = self.y.add(self.x).mul(q.y_plus_x);
        let mm = self.y.sub(self.x).mul(q.y_minus_x);
        let txy2d = self.t.mul(q.xy2d);
        let z2 = self.z.add(self.z);
        Completed {
            x: pp.sub(mm),
            y: pp.add(mm),
            z: z2.add(txy2d),
            t: z2.sub(txy2d),
        }
        .to_extended()
    }

    /// Doubling (4 squarings, 4 products with the conversion back).
    fn double(&self) -> Extended {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz2 = self.z.square();
        let zz2 = zz2.add(zz2);
        let xy_sq = self.x.add(self.y).square();
        Completed {
            x: xy_sq.sub(yy).sub(xx),
            y: yy.add(xx),
            z: yy.sub(xx),
            // 2Z² − (Y² − X²), ordered so the subtrahend is reduced
            t: zz2.add(xx).sub(yy),
        }
        .to_extended()
    }

    /// The affine Niels form, for a table entry.
    fn to_niels(self, d2: Fe) -> Niels {
        let zi = self.z.invert();
        let x = self.x.mul(zi);
        let y = self.y.mul(zi);
        Niels {
            y_plus_x: y.add(x),
            y_minus_x: y.sub(x),
            xy2d: x.mul(y).mul(d2),
        }
    }
}

impl Completed {
    #[inline(always)]
    fn to_extended(&self) -> Extended {
        Extended {
            x: self.x.mul(self.t),
            y: self.y.mul(self.z),
            z: self.z.mul(self.t),
            t: self.x.mul(self.y),
        }
    }
}

/// The comb table: row `i`, entry `j` is `(j + 1)·256ⁱ·B` for the
/// Ed25519 base point `B`, which maps to the Montgomery `u = 9`.
type CombTable = [[Niels; 8]; 32];

fn comb_table() -> &'static CombTable {
    static TABLE: OnceLock<Box<CombTable>> = OnceLock::new();
    TABLE.get_or_init(|| {
        // B = (x, 4/5), with x the even square root (RFC 8032 §5.1)
        const BASE_X: [u8; 32] = [
            0x1a, 0xd5, 0x25, 0x8f, 0x60, 0x2d, 0x56, 0xc9, 0xb2, 0xa7, 0x25, 0x95, 0x60, 0xc7,
            0x2c, 0x69, 0x5c, 0xdc, 0xd6, 0xfd, 0x31, 0xe2, 0xa4, 0xc0, 0xfe, 0x53, 0x6e, 0xcd,
            0xd3, 0x36, 0x69, 0x21,
        ];
        let y = Fe([4, 0, 0, 0, 0]).mul(Fe([5, 0, 0, 0, 0]).invert());
        let x = Fe::from_bytes(&BASE_X);
        // d = −121665/121666
        let d = Fe::ZERO.sub(Fe([121665, 0, 0, 0, 0]).mul(Fe([121666, 0, 0, 0, 0]).invert()));
        let d2 = d.add(d).reduce();

        let mut row_base = Extended {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(y),
        };
        let mut table = Box::new([[Niels::IDENTITY; 8]; 32]);
        for row in table.iter_mut() {
            let base = row_base.to_niels(d2);
            row[0] = base;
            let mut multiple = row_base;
            for entry in &mut row[1..] {
                multiple = multiple.add_niels(&base);
                *entry = multiple.to_niels(d2);
            }
            for _ in 0..8 {
                row_base = row_base.double();
            }
        }
        table
    })
}

/// `digit · row[0]` for `digit ∈ [−8, 8]`: reads all 8 entries and keeps
/// the wanted one by mask, then negates by mask.
#[inline(always)]
fn select(row: &[Niels; 8], digit: i8) -> Niels {
    let negative = u64::from((digit as u8) >> 7);
    let sign = digit >> 7; // 0 or −1
    let abs = ((digit ^ sign) - sign) as u8;
    let mut out = Niels::IDENTITY;
    for (j, entry) in row.iter().enumerate() {
        let diff = u64::from(abs ^ (j as u8 + 1));
        // all ones exactly when diff == 0
        let hit = 0u64.wrapping_sub(diff.wrapping_sub(1) >> 63);
        out.cmov(entry, hit);
    }
    let negated = Niels {
        y_plus_x: out.y_minus_x,
        y_minus_x: out.y_plus_x,
        xy2d: Fe::ZERO.sub(out.xy2d),
    };
    out.cmov(&negated, 0u64.wrapping_sub(negative));
    out
}

/// Derives the public key for a private scalar: `X25519(private, 9)`,
/// computed with the fixed-base comb.
pub fn public_key(private: &[u8; 32]) -> [u8; 32] {
    let k = clamp(private);
    // signed radix-16 digits: k = Σ e_i·16^i with e_i ∈ [−8, 8)
    // (e_63 ∈ [0, 8], since the clamped k is below 2²⁵⁵)
    let mut e = [0i8; 64];
    for (i, byte) in k.iter().enumerate() {
        e[2 * i] = (byte & 15) as i8;
        e[2 * i + 1] = (byte >> 4) as i8;
    }
    let mut carry = 0i8;
    for digit in &mut e[..63] {
        *digit += carry;
        carry = (*digit + 8) >> 4;
        *digit -= carry << 4;
    }
    e[63] += carry;

    let table = comb_table();
    let mut h = Extended::IDENTITY;
    for i in (1..64).step_by(2) {
        h = h.add_niels(&select(&table[i / 2], e[i]));
    }
    for _ in 0..4 {
        h = h.double();
    }
    for i in (0..64).step_by(2) {
        h = h.add_niels(&select(&table[i / 2], e[i]));
    }
    // u = (1 + y)/(1 − y) with y = Y/Z
    h.z.add(h.y).mul(h.z.sub(h.y).invert()).to_bytes()
}

/// Computes the shared secret between a private scalar and a peer's
/// public key.
pub fn shared_secret(private: &[u8; 32], peer_public: &[u8; 32]) -> [u8; 32] {
    x25519(private, peer_public)
}

/// The field code and ladder this module used before the lazy limb
/// bounds and the comb, kept as the reference the tests compare against.
#[cfg(test)]
mod oracle {
    #[derive(Clone, Copy, Debug)]
    struct Fe([u64; 5]);

    const MASK51: u64 = (1u64 << 51) - 1;

    impl Fe {
        const ZERO: Fe = Fe([0; 5]);
        const ONE: Fe = Fe([1, 0, 0, 0, 0]);

        fn from_bytes(bytes: &[u8; 32]) -> Fe {
            Fe(super::Fe::from_bytes(bytes).0)
        }

        fn to_bytes(self) -> [u8; 32] {
            super::Fe(self.0).to_bytes()
        }

        /// Weak reduction: brings limbs below 2^52.
        fn reduce(self) -> Fe {
            let mut h = self.0;
            let mut carry = h[4] >> 51;
            h[4] &= MASK51;
            h[0] += 19 * carry;
            for i in 0..4 {
                carry = h[i] >> 51;
                h[i] &= MASK51;
                h[i + 1] += carry;
            }
            carry = h[4] >> 51;
            h[4] &= MASK51;
            h[0] += 19 * carry;
            Fe(h)
        }

        fn add(self, rhs: Fe) -> Fe {
            let mut h = [0u64; 5];
            for i in 0..5 {
                h[i] = self.0[i] + rhs.0[i];
            }
            Fe(h).reduce()
        }

        fn sub(self, rhs: Fe) -> Fe {
            let mut h = [0u64; 5];
            h[0] = self.0[0] + 0xFFFFFFFFFFFDA - rhs.0[0];
            h[1] = self.0[1] + 0xFFFFFFFFFFFFE - rhs.0[1];
            h[2] = self.0[2] + 0xFFFFFFFFFFFFE - rhs.0[2];
            h[3] = self.0[3] + 0xFFFFFFFFFFFFE - rhs.0[3];
            h[4] = self.0[4] + 0xFFFFFFFFFFFFE - rhs.0[4];
            Fe(h).reduce()
        }

        fn mul(self, rhs: Fe) -> Fe {
            let a = self.0;
            let b = rhs.0;
            let a1_19 = a[1] * 19;
            let a2_19 = a[2] * 19;
            let a3_19 = a[3] * 19;
            let a4_19 = a[4] * 19;
            let m = |x: u64, y: u64| x as u128 * y as u128;
            let mut t = [0u128; 5];
            t[0] =
                m(a[0], b[0]) + m(a4_19, b[1]) + m(a3_19, b[2]) + m(a2_19, b[3]) + m(a1_19, b[4]);
            t[1] = m(a[0], b[1]) + m(a[1], b[0]) + m(a4_19, b[2]) + m(a3_19, b[3]) + m(a2_19, b[4]);
            t[2] = m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a4_19, b[3]) + m(a3_19, b[4]);
            t[3] = m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a4_19, b[4]);
            t[4] = m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]);

            let mut h = [0u64; 5];
            let mut carry: u128 = 0;
            for i in 0..5 {
                let v = t[i] + carry;
                h[i] = (v as u64) & MASK51;
                carry = v >> 51;
            }
            h[0] += (carry as u64) * 19;
            let c = h[0] >> 51;
            h[0] &= MASK51;
            h[1] += c;
            Fe(h)
        }

        fn square(self) -> Fe {
            self.mul(self)
        }

        fn mul_small(self, k: u64) -> Fe {
            let mut t = [0u128; 5];
            for i in 0..5 {
                t[i] = self.0[i] as u128 * k as u128;
            }
            let mut h = [0u64; 5];
            let mut carry: u128 = 0;
            for i in 0..5 {
                let v = t[i] + carry;
                h[i] = (v as u64) & MASK51;
                carry = v >> 51;
            }
            h[0] += (carry as u64) * 19;
            Fe(h).reduce()
        }

        fn invert(self) -> Fe {
            let z = self;
            let z2 = z.square();
            let z9 = z2.square().square().mul(z);
            let z11 = z9.mul(z2);
            let z2_5_0 = z11.square().mul(z9);
            let mut t = z2_5_0;
            for _ in 0..5 {
                t = t.square();
            }
            let z2_10_0 = t.mul(z2_5_0);
            t = z2_10_0;
            for _ in 0..10 {
                t = t.square();
            }
            let z2_20_0 = t.mul(z2_10_0);
            t = z2_20_0;
            for _ in 0..20 {
                t = t.square();
            }
            let z2_40_0 = t.mul(z2_20_0);
            t = z2_40_0;
            for _ in 0..10 {
                t = t.square();
            }
            let z2_50_0 = t.mul(z2_10_0);
            t = z2_50_0;
            for _ in 0..50 {
                t = t.square();
            }
            let z2_100_0 = t.mul(z2_50_0);
            t = z2_100_0;
            for _ in 0..100 {
                t = t.square();
            }
            let z2_200_0 = t.mul(z2_100_0);
            t = z2_200_0;
            for _ in 0..50 {
                t = t.square();
            }
            let z2_250_0 = t.mul(z2_50_0);
            t = z2_250_0;
            for _ in 0..5 {
                t = t.square();
            }
            t.mul(z11)
        }

        fn cswap(a: &mut Fe, b: &mut Fe, swap: u64) {
            let mask = 0u64.wrapping_sub(swap);
            for i in 0..5 {
                let x = mask & (a.0[i] ^ b.0[i]);
                a.0[i] ^= x;
                b.0[i] ^= x;
            }
        }
    }

    /// `X25519(scalar, u)` as the module computed it before.
    pub(super) fn x25519(scalar: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
        let k = super::clamp(scalar);
        let mut u_bytes = *u;
        u_bytes[31] &= 127;
        let x1 = Fe::from_bytes(&u_bytes);

        let mut x2 = Fe::ONE;
        let mut z2 = Fe::ZERO;
        let mut x3 = x1;
        let mut z3 = Fe::ONE;
        let mut swap = 0u64;

        for t in (0..255).rev() {
            let k_t = ((k[t / 8] >> (t % 8)) & 1) as u64;
            swap ^= k_t;
            Fe::cswap(&mut x2, &mut x3, swap);
            Fe::cswap(&mut z2, &mut z3, swap);
            swap = k_t;

            let a = x2.add(z2);
            let aa = a.square();
            let b = x2.sub(z2);
            let bb = b.square();
            let e = aa.sub(bb);
            let c = x3.add(z3);
            let d = x3.sub(z3);
            let da = d.mul(a);
            let cb = c.mul(b);
            x3 = da.add(cb).square();
            z3 = x1.mul(da.sub(cb).square());
            x2 = aa.mul(bb);
            z2 = e.mul(aa.add(e.mul_small(121665)));
        }
        Fe::cswap(&mut x2, &mut x3, swap);
        Fe::cswap(&mut z2, &mut z3, swap);
        x2.mul(z2.invert()).to_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unhex(s: &str) -> [u8; 32] {
        let v: Vec<u8> = (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect();
        v.try_into().unwrap()
    }

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    #[test]
    fn rfc7748_vector_1() {
        let k = unhex("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        let u = unhex("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
        assert_eq!(
            hex(&x25519(&k, &u)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        );
    }

    #[test]
    fn rfc7748_vector_2() {
        let k = unhex("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
        let u = unhex("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
        assert_eq!(
            hex(&x25519(&k, &u)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
        );
    }

    #[test]
    fn rfc7748_iterated_vector() {
        let mut k = unhex("0900000000000000000000000000000000000000000000000000000000000000");
        let mut u = k;
        // after 1 iteration
        let r = x25519(&k, &u);
        u = k;
        k = r;
        assert_eq!(
            hex(&k),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
        );
        // after 1000 iterations
        for _ in 1..1000 {
            let r = x25519(&k, &u);
            u = k;
            k = r;
        }
        assert_eq!(
            hex(&k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
        );
    }

    #[test]
    fn rfc7748_diffie_hellman() {
        let alice_priv = unhex("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
        let bob_priv = unhex("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
        let alice_pub = public_key(&alice_priv);
        let bob_pub = public_key(&bob_priv);
        assert_eq!(
            hex(&alice_pub),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        );
        assert_eq!(
            hex(&bob_pub),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        );
        let s1 = shared_secret(&alice_priv, &bob_pub);
        let s2 = shared_secret(&bob_priv, &alice_pub);
        assert_eq!(s1, s2);
        assert_eq!(
            hex(&s1),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
        );
    }

    #[test]
    fn field_roundtrip() {
        // encode/decode stability on structured values
        for seed in 0u8..8 {
            let mut b = [0u8; 32];
            for (i, x) in b.iter_mut().enumerate() {
                *x = seed.wrapping_mul(31).wrapping_add(i as u8);
            }
            b[31] &= 0x7f;
            let fe = Fe::from_bytes(&b);
            let back = fe.to_bytes();
            let fe2 = Fe::from_bytes(&back);
            assert_eq!(fe2.to_bytes(), back);
        }
    }

    #[test]
    fn clamping_is_applied() {
        // two scalars differing only in clamped bits give the same output
        let mut a = [0x42u8; 32];
        let mut b = a;
        a[0] |= 7;
        b[0] &= !7;
        b[31] |= 128;
        assert_eq!(public_key(&a), public_key(&b));
    }

    #[test]
    fn public_key_matches_the_ladder_on_edge_scalars() {
        for k in [[0u8; 32], [0xffu8; 32]] {
            assert_eq!(public_key(&k), oracle::x25519(&k, &BASEPOINT));
        }
    }

    #[test]
    fn products_accept_limbs_up_to_their_bound() {
        // the widest inputs `mul` and `square` take, against the same
        // values reduced first; debug builds trap any overflow
        let top = Fe([MUL_INPUT - 1; 5]);
        let reduced = top.reduce();
        let expect = reduced.mul(reduced).to_bytes();
        assert_eq!(top.mul(top).to_bytes(), expect);
        assert_eq!(top.square().to_bytes(), expect);
        assert_eq!(reduced.square().to_bytes(), expect);
        assert_eq!(
            top.mul_small(121665).to_bytes(),
            reduced.mul_small(121665).to_bytes()
        );
    }

    #[test]
    fn ladder_step_stays_within_its_limb_bounds_from_the_widest_state() {
        // every input at the top of the reduced range: each lazy
        // add/sub/mul_small asserts its documented bound as it runs
        let w = Fe([REDUCED - 1; 5]);
        let (x2, z2, x3, z3) = ladder_step(w, w, w, w, w);
        for out in [x2, z2, x3, z3] {
            assert!(out.0.iter().all(|&limb| limb < REDUCED), "{out:?}");
        }
    }

    fn bytes32(v: Vec<u8>) -> [u8; 32] {
        v.try_into().expect("32 bytes")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn ladder_matches_the_oracle(
            scalar in proptest::collection::vec(any::<u8>(), 32..=32),
            u in proptest::collection::vec(any::<u8>(), 32..=32),
            above_p in 0u8..19,
            high_bit in any::<bool>(),
        ) {
            let (scalar, u) = (bytes32(scalar), bytes32(u));
            prop_assert_eq!(x25519(&scalar, &u), oracle::x25519(&scalar, &u));
            // a non-canonical u = p + above_p, with or without the masked
            // high bit
            let mut big = [0xffu8; 32];
            big[0] = 0xed + above_p;
            big[31] = if high_bit { 0xff } else { 0x7f };
            prop_assert_eq!(x25519(&scalar, &big), oracle::x25519(&scalar, &big));
        }

        #[test]
        fn public_key_matches_the_oracle(k in proptest::collection::vec(any::<u8>(), 32..=32)) {
            let k = bytes32(k);
            prop_assert_eq!(public_key(&k), oracle::x25519(&k, &BASEPOINT));
        }
    }
}
