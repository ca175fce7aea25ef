//! Compiled tile kernels against the reference interpreter, on random
//! programs wider than the compiler proptests draw:
//!
//! * multi-statement bodies where a later statement reads what an
//!   earlier one wrote in the same iteration;
//! * `Sub`, `Div` and `Const` operands as well as `Add` and `Mul`;
//! * triangular bounds (`j ≥ i`, and `k ≥ j` at depth 3);
//! * statements guarded to the first or last iteration of a loop.
//!
//! Every program runs through the sync walk (`run_functional_on`), the
//! pipelined executor (one prefetch worker, write-behind) and the
//! parallel executor (two shards), and each must equal
//! `ooc_ir::execute_program` bit for bit. Guarded programs are tiled
//! under identity-transform plans with fixed layouts, as the `col` and
//! `row` versions are: a loop transformation copies guards unchanged,
//! so only the untransformed nest gives them their meaning.

use ooc_opt::core::{
    exec_parallel, exec_pipelined, optimize, run_functional_on, FunctionalConfig, OptimizeOptions,
    OptimizedProgram, ParallelConfig, PipelineConfig, TiledProgram, TilingStrategy,
};
use ooc_opt::ir::{ArrayId, ArrayRef, Expr, Guard, GuardAt, LoopNest, Memory, Program, Statement};
use ooc_opt::linalg::{Affine, Matrix, Polyhedron};
use ooc_opt::runtime::{FileLayout, MemStore};
use proptest::prelude::*;

/// Arrays every program declares, all `N × N`.
const ARRAYS: usize = 3;
/// The size parameter the programs run at.
const N: i64 = 8;

/// A 2-D access of a depth-`depth` nest over its last two loops:
/// identity or transposed, with subscript offsets in `-1..=1` (loops
/// keep a one-element margin, so every offset stays in bounds).
#[derive(Debug, Clone, Copy)]
struct Access {
    transposed: bool,
    offset: (i64, i64),
}

impl Access {
    fn reference(self, array: usize, depth: usize) -> ArrayRef {
        let (i, j) = (unit(depth, depth - 2), unit(depth, depth - 1));
        let rows = if self.transposed { [j, i] } else { [i, j] };
        ArrayRef::new(ArrayId(array), &rows, vec![self.offset.0, self.offset.1])
    }
}

fn unit(depth: usize, at: usize) -> Vec<i64> {
    let mut v = vec![0i64; depth];
    v[at] = 1;
    v
}

fn access() -> impl Strategy<Value = Access> {
    (any::<bool>(), -1i64..=1, -1i64..=1).prop_map(|(transposed, oi, oj)| Access {
        transposed,
        offset: (oi, oj),
    })
}

/// A random right-hand side of at most `depth` operator levels.
#[derive(Debug, Clone)]
enum Rhs {
    Const(f64),
    Ref(usize, Access),
    Op(u8, Box<Rhs>, Box<Rhs>),
}

impl Rhs {
    fn expr(&self, depth: usize) -> Expr {
        match self {
            Rhs::Const(c) => Expr::Const(*c),
            Rhs::Ref(a, acc) => Expr::Ref(acc.reference(*a, depth)),
            Rhs::Op(op, a, b) => {
                let (a, b) = (Box::new(a.expr(depth)), Box::new(b.expr(depth)));
                match op % 4 {
                    0 => Expr::Add(a, b),
                    1 => Expr::Sub(a, b),
                    2 => Expr::Mul(a, b),
                    _ => Expr::Div(a, b),
                }
            }
        }
    }
}

fn leaf() -> impl Strategy<Value = Rhs> {
    prop_oneof![
        (1u8..=9).prop_map(|c| Rhs::Const(f64::from(c) * 0.5)),
        (0usize..ARRAYS, access()).prop_map(|(a, acc)| Rhs::Ref(a, acc)),
        (0usize..ARRAYS, access()).prop_map(|(a, acc)| Rhs::Ref(a, acc)),
    ]
}

fn op(a: impl Strategy<Value = Rhs>, b: impl Strategy<Value = Rhs>) -> impl Strategy<Value = Rhs> {
    (any::<u8>(), a, b).prop_map(|(op, a, b)| Rhs::Op(op, Box::new(a), Box::new(b)))
}

fn rhs() -> impl Strategy<Value = Rhs> {
    prop_oneof![
        leaf(),
        op(leaf(), leaf()),
        op(op(leaf(), leaf()), leaf()),
        op(leaf(), op(leaf(), leaf())),
    ]
}

/// One random statement: lhs array and access, right-hand side,
/// whether it reads the previous statement's lhs element first, and an
/// optional guard `(level, at upper bound?)`.
#[derive(Debug, Clone)]
struct Stmt {
    lhs: usize,
    lhs_access: Access,
    rhs: Rhs,
    chain: bool,
    guard: Option<(usize, bool)>,
}

fn stmt() -> impl Strategy<Value = Stmt> {
    (
        0usize..ARRAYS,
        any::<bool>(),
        rhs(),
        any::<bool>(),
        (0u8..4, 0usize..3, any::<bool>()),
    )
        .prop_map(|(lhs, transposed, rhs, chain, (g, level, upper))| Stmt {
            lhs,
            lhs_access: Access {
                transposed,
                offset: (0, 0),
            },
            rhs,
            chain,
            guard: (g == 0).then_some((level, upper)),
        })
}

/// One random nest: depth, triangular bounds, timing iterations and
/// one to three statements.
#[derive(Debug, Clone)]
struct Nest {
    depth: usize,
    triangular: bool,
    iterations: u32,
    body: Vec<Stmt>,
}

fn nest() -> impl Strategy<Value = Nest> {
    (
        2usize..=3,
        any::<bool>(),
        1u32..=2,
        proptest::collection::vec(stmt(), 1..=3),
    )
        .prop_map(|(depth, triangular, iterations, body)| Nest {
            depth,
            triangular,
            iterations,
            body,
        })
}

/// `2 ≤ x_l ≤ N - 1` at every level, plus `x_l ≥ x_{l-1}` when
/// triangular.
fn bounds(depth: usize, triangular: bool) -> Polyhedron {
    let mut p = Polyhedron::universe(depth, 1);
    for l in 0..depth {
        let x = Affine::var(depth, 1, l);
        let mut hi = Affine::param(depth, 1, 0);
        hi.constant = ooc_opt::linalg::Rational::from(-1i64);
        p.add_ge0(x.sub(&Affine::constant(depth, 1, 2)));
        p.add_ge0(hi.sub(&x));
        if triangular && l > 0 {
            p.add_ge0(x.sub(&Affine::var(depth, 1, l - 1)));
        }
    }
    p
}

/// Builds the program; `guarded = false` drops every guard.
fn build(nests: &[Nest], guarded: bool) -> Program {
    let mut p = Program::new(&["N"]);
    for a in 0..ARRAYS {
        p.declare_array(&format!("A{a}"), 2, 0);
    }
    for (ni, n) in nests.iter().enumerate() {
        let mut body: Vec<Statement> = Vec::new();
        for s in &n.body {
            let mut rhs = s.rhs.expr(n.depth);
            if let (true, Some(prev)) = (s.chain, body.last()) {
                // Read the element the previous statement just wrote.
                rhs = Expr::Sub(Box::new(Expr::Ref(prev.lhs.clone())), Box::new(rhs));
            }
            let mut st = Statement::assign(s.lhs_access.reference(s.lhs, n.depth), rhs);
            if let (true, Some((level, upper))) = (guarded, s.guard) {
                st.guards.push(Guard {
                    var: level % n.depth,
                    at: if upper {
                        GuardAt::UpperBound
                    } else {
                        GuardAt::LowerBound
                    },
                });
            }
            body.push(st);
        }
        p.add_nest(LoopNest {
            name: format!("nest{ni}"),
            depth: n.depth,
            bounds: bounds(n.depth, n.triangular),
            body,
            iterations: n.iterations,
        });
    }
    p
}

fn seed(a: ArrayId, idx: &[i64]) -> f64 {
    let mut h = (a.0 as i64 + 5) * 7919;
    for &x in idx {
        h = h.wrapping_mul(41).wrapping_add(x * 13);
    }
    ((h % 613) as f64) / 32.0 + 1.0
}

/// The reference interpreter's final contents, canonical row-major.
fn reference(prog: &Program, params: &[i64]) -> Vec<Vec<f64>> {
    let mut mem = Memory::for_program(prog, params);
    for a in 0..prog.arrays.len() {
        let n = params[0];
        mem.seed(ArrayId(a), |i| {
            let i = i as i64;
            seed(ArrayId(a), &[i / n + 1, i % n + 1])
        });
    }
    ooc_opt::ir::execute_program(prog, &mut mem);
    (0..prog.arrays.len())
        .map(|a| mem.array_data(ArrayId(a)).to_vec())
        .collect()
}

/// The program under fixed layouts and identity transforms.
fn identity_plan(prog: &Program, row_major: bool) -> OptimizedProgram {
    let layout = if row_major {
        FileLayout::row_major(2)
    } else {
        FileLayout::col_major(2)
    };
    OptimizedProgram {
        program: prog.clone(),
        layouts: vec![layout; prog.arrays.len()],
        transforms: prog
            .nests
            .iter()
            .map(|n| Matrix::identity(n.depth))
            .collect(),
        log: Vec::new(),
    }
}

/// Bitwise equality, so a NaN from `0/0` compares equal to itself.
fn bits(data: &[Vec<f64>]) -> Vec<Vec<u64>> {
    data.iter()
        .map(|a| a.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// Runs `tp` through all three executors and checks each against
/// `want`.
fn check_executors(tp: &TiledProgram, want: &[Vec<f64>], what: &str) {
    let params = [N];
    let functional = FunctionalConfig::with_fraction(16);
    let mem = |_: usize, _: &str, len: u64| Ok(MemStore::new(len));
    let sync = run_functional_on(tp, &params, &seed, &functional, mem).expect("sync run");
    assert_eq!(bits(&sync.data), bits(want), "{what}: sync walk");

    let pcfg = PipelineConfig {
        functional,
        workers: 1,
        prefetch_depth: 2,
        cache_capacity: None,
        write_behind: true,
    };
    let piped = exec_pipelined(tp, &params, &seed, &pcfg, mem).expect("pipelined run");
    assert_eq!(bits(&piped.run.data), bits(want), "{what}: pipelined");

    let par = ParallelConfig {
        pipeline: pcfg,
        shards: 2,
    };
    let sharded = exec_parallel(tp, &params, &seed, &par, mem).expect("parallel run");
    assert_eq!(
        bits(&sharded.run.data),
        bits(want),
        "{what}: parallel, 2 shards"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Unguarded programs: fixed-layout identity plans, plus the
    /// combined optimizer's plan on rectangular programs, under
    /// out-of-core and traditional tiling.
    ///
    /// Triangular programs skip the optimizer's plan: an interchange
    /// turns `j ≥ i` into `j ≤ i`, and the tile walk's per-level ranges
    /// (`level_ranges`, evaluated at the outer loops' lower bounds) then
    /// under-cover the nest on every executor — a known defect of the
    /// tile walk, listed in ROADMAP.md, not of the kernels.
    #[test]
    fn compiled_kernels_match_the_reference(nests in proptest::collection::vec(nest(), 1..=2)) {
        let prog = build(&nests, false);
        let want = reference(&prog, &[N]);
        let mut plans = vec![
            ("col", identity_plan(&prog, false)),
            ("row", identity_plan(&prog, true)),
        ];
        if nests.iter().all(|n| !n.triangular) {
            let opts = OptimizeOptions { cost_params: vec![16], ..Default::default() };
            plans.push(("c-opt", optimize(&prog, &opts)));
        }
        for (name, plan) in &plans {
            for strategy in [TilingStrategy::OutOfCore, TilingStrategy::Traditional] {
                let tp = TiledProgram::from_optimized(plan, strategy);
                check_executors(&tp, &want, &format!("{name} {strategy:?} {prog:?}"));
            }
        }
    }

    /// Guarded programs: sunk statements run only at the first/last
    /// iteration of the whole loop, whatever the tile boxes.
    #[test]
    fn guarded_statements_match_the_reference(nests in proptest::collection::vec(nest(), 1..=2)) {
        let prog = build(&nests, true);
        let want = reference(&prog, &[N]);
        for row_major in [false, true] {
            let plan = identity_plan(&prog, row_major);
            for strategy in [TilingStrategy::OutOfCore, TilingStrategy::Traditional] {
                let tp = TiledProgram::from_optimized(&plan, strategy);
                check_executors(&tp, &want, &format!("row {row_major} {strategy:?} {prog:?}"));
            }
        }
    }
}
