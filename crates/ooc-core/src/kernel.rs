//! Compiled tile kernels: the compute side of both tile walks.
//!
//! A nest's [`Staging`] plan fixes which tile slot every reference
//! reads or writes; [`NestKernel::lower`] then compiles the nest, once
//! per run, into integer index arithmetic over those slots:
//!
//! * **Loop bounds** become integer affine forms over the outer loop
//!   variables — parameters folded in, one common denominator per form
//!   — whose exact ceiling/floor (`div_euclid`) equals
//!   [`LoopBounds::eval`] at every point.
//! * **References** get a dense slot index and integer access rows.
//!   Per tile step, each becomes a base offset plus one stride per loop
//!   level into its staged tile's row-major buffer (the index
//!   arithmetic of a tiling order: position = Σ coordinate × stride).
//! * **Right-hand sides** become postfix programs evaluated in the
//!   source expression's order — left operand, then right, no
//!   reassociation, no fused multiply-add — so results are bit-equal
//!   to the reference interpreter.
//! * **Guards** become integer compares against the unclamped level
//!   bounds recorded on the way down (a sunk statement runs at the
//!   first/last iteration of the *whole* loop, not of the tile).
//!
//! A kernel call takes staged tiles in and leaves written tiles
//! updated in place; it holds no other state, so one lowered kernel
//! serves every shard of a parallel run read-only. The element loop
//! does no heap allocation.
//!
//! The checks a per-element tile lookup made are kept. Every
//! subscript of an unguarded statement is affine in the innermost
//! variable, so checking both ends of each innermost run against the
//! staged region bounds every point of the run ("index … outside
//! tile"); guarded statements are checked at each point they execute.
//! A reference whose slot has no staged tile panics with "read tile
//! staged" / "lhs tile staged" when it is first needed.

use crate::tiling::{access_classes, array_region, class_region};
use ooc_ir::{ArrayId, ArrayRef, Expr, GuardAt, LoopNest};
use ooc_linalg::{lcm, LoopBounds, Matrix, Rational};
use ooc_runtime::{Region, Tile};

/// The functional staging plan of one nest: the tile slots its
/// references are staged through, one dense index per slot in
/// `(array, slot)` order.
///
/// Each array gets one slot per access class, except that a written
/// array touched through several classes falls back to a single hull
/// slot, so every read sees the freshest values and every slot of a
/// written array is itself written.
pub(crate) struct Staging {
    /// Per dense slot, in `(array, slot)` order (the order the walks
    /// retire tiles in): its `(array, slot within the array)` key and
    /// the access class it stages (`None` = the array's hull slot).
    slots: Vec<((ArrayId, usize), Option<Matrix>)>,
    /// Per dense slot: whether the slot receives writes.
    written: Vec<bool>,
}

impl Staging {
    pub(crate) fn for_nest(nest: &LoopNest) -> Self {
        let mut slots = Vec::new();
        let mut written = Vec::new();
        for a in nest.arrays() {
            let classes = access_classes(nest, a);
            let writes = |class: Option<&Matrix>| {
                nest.body
                    .iter()
                    .any(|st| st.lhs.array == a && class.is_none_or(|c| st.lhs.access == *c))
            };
            if classes.len() > 1 && writes(None) {
                slots.push(((a, 0), None));
                written.push(true);
            } else {
                for (i, class) in classes.into_iter().enumerate() {
                    written.push(writes(Some(&class)));
                    slots.push(((a, i), Some(class)));
                }
            }
        }
        Staging { slots, written }
    }

    /// Number of dense slots.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The `(array, slot within the array)` key of dense slot `slot`.
    pub(crate) fn key(&self, slot: usize) -> (ArrayId, usize) {
        self.slots[slot].0
    }

    /// The dense slot of `key`.
    pub(crate) fn index(&self, key: (ArrayId, usize)) -> usize {
        self.slots
            .binary_search_by_key(&key, |(k, _)| *k)
            .expect("slot staged")
    }

    /// Whether dense slot `slot` receives writes.
    pub(crate) fn is_written(&self, slot: usize) -> bool {
        self.written[slot]
    }

    /// Every (dense slot, region) pair to stage for a tile box, in
    /// slot order.
    pub(crate) fn regions(&self, nest: &LoopNest, lo: &[i64], hi: &[i64]) -> Vec<(usize, Region)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(slot, ((a, _), class))| {
                let region = match class {
                    None => array_region(nest, *a, lo, hi),
                    Some(class) => class_region(nest, *a, class, lo, hi),
                }?;
                Some((slot, region))
            })
            .collect()
    }
}

/// One bound form lowered to integers: `(Σ coeffs[l]·x_l + constant)
/// / den` over the outer loop variables `x_0 … x_{level-1}`.
#[derive(Debug)]
struct IntForm {
    coeffs: Vec<i64>,
    constant: i64,
    den: i64,
}

impl IntForm {
    /// The numerator at `outer`.
    fn numerator(&self, outer: &[i64]) -> i64 {
        self.coeffs
            .iter()
            .zip(outer)
            .fold(self.constant, |acc, (c, x)| acc + c * x)
    }

    fn ceil(&self, outer: &[i64]) -> i64 {
        let n = self.numerator(outer);
        if self.den == 1 {
            n
        } else {
            -(-n).div_euclid(self.den)
        }
    }

    fn floor(&self, outer: &[i64]) -> i64 {
        let n = self.numerator(outer);
        if self.den == 1 {
            n
        } else {
            n.div_euclid(self.den)
        }
    }
}

/// One loop level's bounds lowered to integer forms: the level runs
/// `max(ceil(lowers)) ..= min(floor(uppers))`.
#[derive(Debug)]
pub(crate) struct LevelBounds {
    lowers: Vec<IntForm>,
    uppers: Vec<IntForm>,
}

impl LevelBounds {
    /// Lowers the bounds of loop `level` at the given parameters. Only
    /// the outer variables' coefficients are kept: [`LoopBounds::eval`]
    /// pads the point with zeros past the outer variables.
    ///
    /// # Panics
    /// Panics if a lowered coefficient does not fit an `i64`.
    pub(crate) fn lower(bounds: &LoopBounds, level: usize, params: &[i64]) -> Self {
        let lower = |form: &ooc_linalg::Affine| {
            let mut constant = form.constant;
            for (c, &p) in form.param_coeffs.iter().zip(params) {
                constant += *c * Rational::from(p);
            }
            let coeffs: Vec<Rational> = form.var_coeffs.iter().take(level).copied().collect();
            let den = coeffs
                .iter()
                .chain([&constant])
                .fold(1i64, |d, c| lcm(d, int(c.den())));
            let scaled = |c: &Rational| int((*c * Rational::from(den)).num());
            IntForm {
                coeffs: coeffs.iter().map(scaled).collect(),
                constant: scaled(&constant),
                den,
            }
        };
        LevelBounds {
            lowers: bounds.lowers.iter().map(lower).collect(),
            uppers: bounds.uppers.iter().map(lower).collect(),
        }
    }

    /// The level's inclusive range at the outer point `outer`, or
    /// `None` when it is empty there — exactly [`LoopBounds::eval`].
    pub(crate) fn eval(&self, outer: &[i64]) -> Option<(i64, i64)> {
        let lo = self.lowers.iter().map(|f| f.ceil(outer)).max()?;
        let hi = self.uppers.iter().map(|f| f.floor(outer)).min()?;
        (lo <= hi).then_some((lo, hi))
    }
}

fn int(v: i128) -> i64 {
    i64::try_from(v).expect("bound overflow")
}

/// One reference lowered to integer index arithmetic.
#[derive(Debug)]
struct RefCode {
    /// Dense slot of the staged tile it reads or writes.
    slot: usize,
    /// Access matrix, `rank × depth`, row-major.
    rows: Vec<i64>,
    /// Constant subscript offsets, one per array dimension.
    offset: Vec<i64>,
}

/// One postfix instruction of a right-hand side.
#[derive(Debug, Clone, Copy)]
enum Op {
    Const(f64),
    /// Push the element reference `r` reads from `slot`.
    Load {
        r: usize,
        slot: usize,
    },
    /// Pop the right operand, then the left; push `left op right`.
    Bin(BinOp),
}

#[derive(Debug, Clone, Copy)]
enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl BinOp {
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
        }
    }
}

/// One statement: its postfix right-hand side, the lhs reference, and
/// its guards.
#[derive(Debug)]
struct StmtCode {
    ops: Vec<Op>,
    /// References read, in evaluation order.
    reads: Vec<usize>,
    lhs: usize,
    guards: Vec<(usize, GuardAt)>,
}

/// A loop nest compiled against its staging plan (see the module
/// docs).
#[derive(Debug)]
pub(crate) struct NestKernel {
    depth: usize,
    levels: Vec<LevelBounds>,
    refs: Vec<RefCode>,
    stmts: Vec<StmtCode>,
    /// Deepest operand stack any statement needs.
    stack: usize,
}

impl NestKernel {
    /// Lowers `nest` at the given parameters against `staging` (built
    /// by [`Staging::for_nest`] from the same nest).
    ///
    /// # Panics
    /// Panics if an access matrix is not integral or a reference's
    /// class is not staged.
    pub(crate) fn lower(nest: &LoopNest, staging: &Staging, params: &[i64]) -> Self {
        let levels = nest
            .bounds
            .loop_bounds()
            .iter()
            .enumerate()
            .map(|(l, b)| LevelBounds::lower(b, l, params))
            .collect();
        let mut kernel = NestKernel {
            depth: nest.depth,
            levels,
            refs: Vec::new(),
            stmts: Vec::new(),
            stack: 0,
        };
        for st in &nest.body {
            let mut ops = Vec::new();
            let mut reads = Vec::new();
            let height = kernel.emit(&st.rhs, staging, &mut ops, &mut reads);
            kernel.stack = kernel.stack.max(height);
            let lhs = kernel.push_ref(&st.lhs, staging);
            let guards = st.guards.iter().map(|g| (g.var, g.at)).collect();
            kernel.stmts.push(StmtCode {
                ops,
                reads,
                lhs,
                guards,
            });
        }
        kernel
    }

    /// Appends `r` to the reference table, resolving its slot.
    fn push_ref(&mut self, r: &ArrayRef, staging: &Staging) -> usize {
        let slot = staging
            .slots
            .iter()
            .position(|((a, _), class)| {
                *a == r.array && class.as_ref().is_none_or(|c| *c == r.access)
            })
            .expect("reference class staged");
        let mut rows = Vec::with_capacity(r.rank() * self.depth);
        for d in 0..r.rank() {
            for l in 0..self.depth {
                let c = r.access[(d, l)].as_integer().expect("integer subscript");
                rows.push(i64::try_from(c).expect("overflow"));
            }
        }
        self.refs.push(RefCode {
            slot,
            rows,
            offset: r.offset.clone(),
        });
        self.refs.len() - 1
    }

    /// Emits `e` in postfix order; returns the operand-stack height
    /// its evaluation needs.
    fn emit(
        &mut self,
        e: &Expr,
        staging: &Staging,
        ops: &mut Vec<Op>,
        reads: &mut Vec<usize>,
    ) -> usize {
        let (a, b, op) = match e {
            Expr::Const(c) => {
                ops.push(Op::Const(*c));
                return 1;
            }
            Expr::Ref(r) => {
                let r = self.push_ref(r, staging);
                reads.push(r);
                ops.push(Op::Load {
                    r,
                    slot: self.refs[r].slot,
                });
                return 1;
            }
            Expr::Add(a, b) => (a, b, BinOp::Add),
            Expr::Sub(a, b) => (a, b, BinOp::Sub),
            Expr::Mul(a, b) => (a, b, BinOp::Mul),
            Expr::Div(a, b) => (a, b, BinOp::Div),
        };
        let ha = self.emit(a, staging, ops, reads);
        let hb = self.emit(b, staging, ops, reads);
        ops.push(Op::Bin(op));
        ha.max(hb + 1)
    }

    /// Executes every iteration point of the nest inside the tile box
    /// `lo ..= hi` against the staged tiles, indexed by dense slot.
    ///
    /// # Panics
    /// Panics if a reference that executes has no staged tile, or
    /// indexes outside its staged tile.
    pub(crate) fn run(&self, lo: &[i64], hi: &[i64], tiles: &mut [Option<Tile>]) {
        let depth = self.depth;
        // Per reference: the staged region's bounds, and the base
        // offset and per-level strides into its row-major buffer.
        let mut region: Vec<Option<Vec<(i64, i64)>>> = Vec::with_capacity(self.refs.len());
        let mut base = vec![0i64; self.refs.len()];
        let mut stride = vec![0i64; self.refs.len() * depth];
        for (r, rc) in self.refs.iter().enumerate() {
            let Some(tile) = &tiles[rc.slot] else {
                region.push(None);
                continue;
            };
            let reg = tile.region();
            let mut mult = 1i64;
            for d in (0..rc.offset.len()).rev() {
                base[r] += (rc.offset[d] - reg.lo[d]) * mult;
                for l in 0..depth {
                    stride[r * depth + l] += rc.rows[d * depth + l] * mult;
                }
                mult *= reg.extent(d);
            }
            region.push(Some(
                reg.lo.iter().copied().zip(reg.hi.iter().copied()).collect(),
            ));
        }
        let mut bufs: Vec<&mut [f64]> = tiles
            .iter_mut()
            .map(|t| t.as_mut().map_or(&mut [][..], Tile::data_mut))
            .collect();
        let mut frame = Frame {
            lo,
            hi,
            region,
            base,
            stride,
            off: vec![0; self.refs.len()],
            iter: vec![0; depth],
            ulo: vec![0; depth],
            uhi: vec![0; depth],
            stack: vec![0.0; self.stack.max(1)],
        };
        self.walk(&mut frame, &mut bufs, 0);
    }

    /// Loop level `l` of the element walk.
    fn walk(&self, f: &mut Frame<'_>, bufs: &mut [&mut [f64]], l: usize) {
        let Some((ulo, uhi)) = self.levels[l].eval(&f.iter[..l]) else {
            return;
        };
        f.ulo[l] = ulo;
        f.uhi[l] = uhi;
        let (a, b) = (ulo.max(f.lo[l]), uhi.min(f.hi[l]));
        if l + 1 == self.depth {
            if a <= b {
                self.run_inner(f, bufs, a, b);
            }
            return;
        }
        for v in a..=b {
            f.iter[l] = v;
            self.walk(f, bufs, l + 1);
        }
    }

    /// The innermost loop over `a ..= b`, outer variables in `f.iter`.
    fn run_inner(&self, f: &mut Frame<'_>, bufs: &mut [&mut [f64]], a: i64, b: i64) {
        let inner = self.depth - 1;
        for st in self.stmts.iter().filter(|st| st.guards.is_empty()) {
            for x in [a, b] {
                self.check_stmt(f, st, x);
            }
        }
        for (r, off) in f.off.iter_mut().enumerate() {
            let s = &f.stride[r * self.depth..(r + 1) * self.depth];
            *off = f.base[r]
                + s[..inner]
                    .iter()
                    .zip(&f.iter)
                    .map(|(s, x)| s * x)
                    .sum::<i64>()
                + s[inner] * a;
        }
        for x in a..=b {
            f.iter[inner] = x;
            for st in &self.stmts {
                if !st.guards.is_empty() {
                    let holds = st.guards.iter().all(|&(v, at)| match at {
                        GuardAt::LowerBound => f.iter[v] == f.ulo[v],
                        GuardAt::UpperBound => f.iter[v] == f.uhi[v],
                    });
                    if !holds {
                        continue;
                    }
                    self.check_stmt(f, st, x);
                }
                let mut sp = 0;
                for op in &st.ops {
                    let v = match *op {
                        Op::Const(c) => c,
                        Op::Load { r, slot } => bufs[slot][f.off[r] as usize],
                        Op::Bin(op) => {
                            sp -= 2;
                            op.apply(f.stack[sp], f.stack[sp + 1])
                        }
                    };
                    f.stack[sp] = v;
                    sp += 1;
                }
                let lhs = &self.refs[st.lhs];
                bufs[lhs.slot][f.off[st.lhs] as usize] = f.stack[0];
            }
            for (r, off) in f.off.iter_mut().enumerate() {
                *off += f.stride[r * self.depth + inner];
            }
        }
    }

    /// Checks that every reference of `st` has a staged tile containing
    /// its subscripts at innermost value `x` — reads first, then the
    /// lhs, as the statement evaluates them.
    fn check_stmt(&self, f: &Frame<'_>, st: &StmtCode, x: i64) {
        for &r in &st.reads {
            self.check_ref(f, r, x, "read tile staged");
        }
        self.check_ref(f, st.lhs, x, "lhs tile staged");
    }

    fn check_ref(&self, f: &Frame<'_>, r: usize, x: i64, unstaged: &str) {
        let rc = &self.refs[r];
        let Some(region) = &f.region[r] else {
            panic!("{unstaged}");
        };
        let inner = self.depth - 1;
        let sub = |d: usize| {
            let row = &rc.rows[d * self.depth..(d + 1) * self.depth];
            row[..inner]
                .iter()
                .zip(&f.iter)
                .map(|(c, v)| c * v)
                .sum::<i64>()
                + row[inner] * x
                + rc.offset[d]
        };
        let inside = region.iter().enumerate().all(|(d, &(lo, hi))| {
            let s = sub(d);
            lo <= s && s <= hi
        });
        if !inside {
            let idx: Vec<i64> = (0..rc.offset.len()).map(sub).collect();
            panic!("index {idx:?} outside tile");
        }
    }
}

/// Per-call state of [`NestKernel::run`].
struct Frame<'a> {
    /// The tile box.
    lo: &'a [i64],
    hi: &'a [i64],
    /// Per reference: its staged region's `(lo, hi)` per dimension
    /// (`None` when its slot has no staged tile).
    region: Vec<Option<Vec<(i64, i64)>>>,
    base: Vec<i64>,
    /// Per reference, per loop level: the buffer stride.
    stride: Vec<i64>,
    /// Per reference: the buffer offset at the current point.
    off: Vec<i64>,
    /// The current point (outer levels; innermost while executing).
    iter: Vec<i64>,
    /// Per level: the unclamped loop bounds at the current outer
    /// point, for guards.
    ulo: Vec<i64>,
    uhi: Vec<i64>,
    stack: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_ir::{Guard, Statement};
    use ooc_linalg::Affine;
    use proptest::prelude::*;

    /// `do i / do j: U(i,j) = V(j,i) * 2 + U(i,j)` over `1..=N`.
    fn transpose_nest() -> LoopNest {
        let u = ArrayRef::new(ArrayId(0), &[vec![1, 0], vec![0, 1]], vec![0, 0]);
        let v = ArrayRef::new(ArrayId(1), &[vec![0, 1], vec![1, 0]], vec![0, 0]);
        let rhs = Expr::Add(
            Box::new(Expr::Mul(
                Box::new(Expr::Ref(v)),
                Box::new(Expr::Const(2.0)),
            )),
            Box::new(Expr::Ref(u.clone())),
        );
        LoopNest::rectangular("t", 2, 1, 0, vec![Statement::assign(u, rhs)])
    }

    /// Tiles for the box `lo ..= hi`, staged exactly as the walks
    /// stage them.
    fn stage(staging: &Staging, nest: &LoopNest, lo: &[i64], hi: &[i64]) -> Vec<Option<Tile>> {
        let mut tiles: Vec<Option<Tile>> = (0..staging.len()).map(|_| None).collect();
        for (slot, region) in staging.regions(nest, lo, hi) {
            tiles[slot] = Some(Tile::zeroed(region));
        }
        tiles
    }

    /// The same tiles with slot `slot`'s region cut one element short
    /// at the high end of dimension 0.
    fn shrink(tiles: &mut [Option<Tile>], slot: usize) {
        let t = tiles[slot].take().expect("staged");
        let mut region = t.region().clone();
        region.hi[0] -= 1;
        tiles[slot] = Some(Tile::zeroed(region));
    }

    fn setup() -> (LoopNest, Staging, NestKernel) {
        let nest = transpose_nest();
        let staging = Staging::for_nest(&nest);
        let kernel = NestKernel::lower(&nest, &staging, &[4]);
        (nest, staging, kernel)
    }

    #[test]
    fn staging_slots_are_dense_and_sorted() {
        // `U(i,j) = V(i,j) + V(j,i) + U(j,i)`: U is written through two
        // classes (one hull slot), V is read through two (two slots).
        let id = [vec![1, 0], vec![0, 1]];
        let tr = [vec![0, 1], vec![1, 0]];
        let r =
            |a: usize, rows: &[Vec<i64>]| Expr::Ref(ArrayRef::new(ArrayId(a), rows, vec![0, 0]));
        let rhs = Expr::Add(
            Box::new(Expr::Add(Box::new(r(1, &id)), Box::new(r(1, &tr)))),
            Box::new(r(0, &tr)),
        );
        let lhs = ArrayRef::new(ArrayId(0), &id, vec![0, 0]);
        let nest = LoopNest::rectangular("s", 2, 1, 0, vec![Statement::assign(lhs, rhs)]);
        let staging = Staging::for_nest(&nest);
        let keys: Vec<_> = (0..staging.len()).map(|s| staging.key(s)).collect();
        assert_eq!(
            keys,
            [(ArrayId(0), 0), (ArrayId(1), 0), (ArrayId(1), 1)],
            "dense slots follow (array, slot) order"
        );
        assert_eq!(staging.index((ArrayId(1), 1)), 2);
        let written: Vec<bool> = (0..staging.len()).map(|s| staging.is_written(s)).collect();
        assert_eq!(written, [true, false, false]);
    }

    #[test]
    #[should_panic(expected = "outside tile")]
    fn read_one_short_of_its_footprint_panics() {
        let (nest, staging, kernel) = setup();
        let (lo, hi) = ([1, 1], [4, 4]);
        let mut tiles = stage(&staging, &nest, &lo, &hi);
        shrink(&mut tiles, 1);
        kernel.run(&lo, &hi, &mut tiles);
    }

    #[test]
    #[should_panic(expected = "outside tile")]
    fn lhs_one_short_of_its_footprint_panics() {
        let (nest, staging, kernel) = setup();
        let (lo, hi) = ([1, 1], [4, 4]);
        let mut tiles = stage(&staging, &nest, &lo, &hi);
        shrink(&mut tiles, 0);
        kernel.run(&lo, &hi, &mut tiles);
    }

    #[test]
    #[should_panic(expected = "read tile staged")]
    fn missing_read_slot_panics() {
        let (nest, staging, kernel) = setup();
        let (lo, hi) = ([1, 1], [4, 4]);
        let mut tiles = stage(&staging, &nest, &lo, &hi);
        tiles[1] = None;
        kernel.run(&lo, &hi, &mut tiles);
    }

    #[test]
    #[should_panic(expected = "lhs tile staged")]
    fn missing_lhs_slot_panics() {
        // `U(i,j) = V(j,i) + 1`: the lhs array is not also read.
        let u = ArrayRef::new(ArrayId(0), &[vec![1, 0], vec![0, 1]], vec![0, 0]);
        let v = ArrayRef::new(ArrayId(1), &[vec![0, 1], vec![1, 0]], vec![0, 0]);
        let rhs = Expr::Add(Box::new(Expr::Ref(v)), Box::new(Expr::Const(1.0)));
        let nest = LoopNest::rectangular("t", 2, 1, 0, vec![Statement::assign(u, rhs)]);
        let staging = Staging::for_nest(&nest);
        let kernel = NestKernel::lower(&nest, &staging, &[4]);
        let (lo, hi) = ([1, 1], [4, 4]);
        let mut tiles = stage(&staging, &nest, &lo, &hi);
        tiles[0] = None;
        kernel.run(&lo, &hi, &mut tiles);
    }

    #[test]
    #[should_panic(expected = "outside tile")]
    fn guarded_statement_is_checked_where_it_runs() {
        // A statement sunk to the last `j` iteration reads `V(i, j+1)`:
        // staged for the box, that read lies one column past the tile
        // exactly where the guard lets the statement run.
        let u = ArrayRef::new(ArrayId(0), &[vec![1, 0], vec![0, 1]], vec![0, 0]);
        let v = ArrayRef::new(ArrayId(1), &[vec![1, 0], vec![0, 1]], vec![0, 0]);
        let mut stmt = Statement::assign(u, Expr::Ref(v));
        stmt.guards.push(Guard {
            var: 1,
            at: GuardAt::UpperBound,
        });
        let nest = LoopNest::rectangular("g", 2, 1, 0, vec![stmt]);
        let staging = Staging::for_nest(&nest);
        let kernel = NestKernel::lower(&nest, &staging, &[4]);
        let (lo, hi) = ([1, 1], [4, 4]);
        let mut tiles = stage(&staging, &nest, &lo, &hi);
        // Cut the read tile short in its last dimension: only the
        // guarded `j = 4` point touches the missing column.
        let t = tiles[1].take().unwrap();
        let mut region = t.region().clone();
        region.hi[1] -= 1;
        tiles[1] = Some(Tile::zeroed(region));
        kernel.run(&lo, &hi, &mut tiles);
    }

    /// A random rational: numerator in `-9..=9`, denominator `1..=7`.
    fn rational() -> impl Strategy<Value = Rational> {
        (-9i64..=9, 1i64..=7).prop_map(|(n, d)| Rational::new(i128::from(n), i128::from(d)))
    }

    fn form(nvars: usize, nparams: usize) -> impl Strategy<Value = Affine> {
        (
            proptest::collection::vec(rational(), nvars..=nvars),
            proptest::collection::vec(rational(), nparams..=nparams),
            rational(),
        )
            .prop_map(|(var_coeffs, param_coeffs, constant)| Affine {
                var_coeffs,
                param_coeffs,
                constant,
            })
    }

    /// Random bounds of one level of a `nvars`-deep nest, with the
    /// level, an outer point and parameter values to evaluate at.
    #[allow(clippy::type_complexity)]
    fn bounds_case() -> impl Strategy<Value = (LoopBounds, usize, Vec<i64>, Vec<i64>)> {
        (1usize..=3, 0usize..=2)
            .prop_flat_map(|(nvars, nparams)| {
                (
                    proptest::collection::vec(form(nvars, nparams), 0..=3),
                    proptest::collection::vec(form(nvars, nparams), 0..=3),
                    0..nvars,
                    proptest::collection::vec(-12i64..=12, nvars..=nvars),
                    proptest::collection::vec(-5i64..=20, nparams..=nparams),
                )
            })
            .prop_map(|(lowers, uppers, level, point, params)| {
                let outer = point[..level].to_vec();
                (LoopBounds { lowers, uppers }, level, outer, params)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Lowered bounds evaluate exactly like the rational forms:
        /// same ceilings and floors (negative numerators included) and
        /// the same empty ranges.
        #[test]
        fn lowered_bounds_equal_rational_eval(case in bounds_case()) {
            let (bounds, level, outer, params) = case;
            let lowered = LevelBounds::lower(&bounds, level, &params);
            prop_assert_eq!(
                lowered.eval(&outer),
                bounds.eval(&outer, &params),
                "bounds {:?} at {:?} / {:?}",
                bounds,
                outer,
                params
            );
        }
    }

    #[test]
    fn lowered_bounds_round_negative_fractions_exactly() {
        // x1 in [ceil((-7 - x0) / 3), floor(N/2 - x0)] at N = 5.
        let mut lo = Affine::zero(2, 1);
        lo.var_coeffs[0] = Rational::new(-1, 3);
        lo.constant = Rational::new(-7, 3);
        let mut hi = Affine::zero(2, 1);
        hi.var_coeffs[0] = Rational::from(-1i64);
        hi.param_coeffs[0] = Rational::new(1, 2);
        let bounds = LoopBounds {
            lowers: vec![lo],
            uppers: vec![hi],
        };
        let lowered = LevelBounds::lower(&bounds, 1, &[5]);
        for x0 in -6..=12 {
            assert_eq!(lowered.eval(&[x0]), bounds.eval(&[x0], &[5]), "x0 = {x0}");
        }
        assert_eq!(lowered.eval(&[1]), Some((-2, 1)));
        assert_eq!(lowered.eval(&[6]), Some((-4, -4)));
        assert_eq!(lowered.eval(&[9]), None, "empty range");
        let open = LoopBounds {
            lowers: bounds.lowers.clone(),
            uppers: Vec::new(),
        };
        assert_eq!(LevelBounds::lower(&open, 1, &[5]).eval(&[0]), None);
    }
}
