#![warn(missing_docs)]
//! AST-level reference interpreter for HLS-C.
//!
//! Executes a parsed [`frontc::Program`] directly — *without* lowering — on
//! concrete [`hir::Memory`] state. Its sole purpose is **differential
//! testing**: the `frontc → hir → cdfg` pipeline is trusted only because
//! running the lowered HIR through `hir::execute` produces byte-identical
//! memory to running the source AST through this crate, across a large
//! generated corpus (`kernels::synthetic_corpus`).
//!
//! # Semantics contract
//!
//! The interpreter mirrors the lowering's value model exactly, because the
//! lowering *is* the semantics being validated:
//!
//! - every value is an `f64`; `int` expressions carry integers in `f64`
//! - integer `+ - * / %` go through [`hir::int_binop`]: operands truncate
//!   toward zero, add/sub/mul saturate at `i64` range, `x/0 == x%0 == 0`
//! - `%` is always an integer operation, even on float operands (the
//!   lowering has no float-rem op kind)
//! - float `x / 0.0` evaluates to `0.0` (matching `OpKind::FDiv`)
//! - `sqrtf` clamps its argument to `>= 0` (matching `OpKind::Sqrt`)
//! - coercion to `int` truncates toward zero; coercion to `float` is a
//!   no-op on the stored `f64`
//! - plain assignment *rebinds* the variable to the right-hand side's value
//!   and static type (the lowering does not insert a cast there)
//! - a ternary evaluates **both** arms (the lowering emits a `Select` whose
//!   inputs are both computed), so an out-of-bounds read in either arm is
//!   an error
//! - `return` evaluates its operand and **continues** — the lowering treats
//!   it as a value computation, not control flow
//! - `&&` / `||` evaluate both sides (no short-circuit in the dataflow)
//!
//! `if` statements are executed by taking the branch the condition selects.
//! The lowering if-converts instead (both branches run, predicated), but
//! the architectures agree on observable state: predicated-off stores are
//! skipped, speculative loads are discarded, and scalar merges pick the
//! taken branch's value via `Select`.
//!
//! # Example
//!
//! ```
//! let src = "void dbl(float a[4]) { for (int i = 0; i < 4; i++) { a[i] = a[i] + a[i]; } }";
//! let program = frontc::parse(src)?;
//! let mut mem = hir::Memory::new();
//! mem.set("a", vec![1.0, 2.0, 3.0, 4.0]);
//! let stats = interp::execute(program.function("dbl").unwrap(), &mut mem)?;
//! assert_eq!(mem.get("a").unwrap(), &[2.0, 4.0, 6.0, 8.0]);
//! assert_eq!(stats.loop_iterations.get("L0"), Some(&4));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use frontc::{AssignOp, BinOp, Expr, FunctionDef, LValue, Stmt, Type, UnOp};
use hir::Memory;

/// Reference-interpretation failure (missing arrays, out-of-bounds
/// accesses, malformed programs that slipped past sema).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpError {
    /// Description.
    pub message: String,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ast-interp: {}", self.message)
    }
}

impl std::error::Error for InterpError {}

/// Execution statistics, used to cross-check static loop metadata
/// (trip counts, nest structure) against observed behavior.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Total iterations executed per loop, keyed by the loop's structural
    /// path rendered like `pragma::LoopId` (`"L0"`, `"L0.L1"`, …) so the
    /// keys line up with `hir` loop ids. A loop nested under an `N`-trip
    /// parent that itself trips `M` times records `N * M`.
    pub loop_iterations: BTreeMap<String, u64>,
    /// Array loads executed (taken branches only).
    pub loads: u64,
    /// Array stores executed (taken branches only).
    pub stores: u64,
}

/// Builds deterministic memory for `func`: arrays get the exact pattern
/// [`hir::Memory::seeded_for`] uses, scalar parameters get values derived
/// from the same hash (truncated for `int` params).
pub fn seeded_memory(func: &FunctionDef, seed: u64) -> Memory {
    let mut mem = Memory::new();
    for (pi, p) in func.params.iter().enumerate() {
        if p.is_array() {
            let n = p.num_elements();
            let data = (0..n)
                .map(|i| {
                    let x = (i as u64).wrapping_mul(2654435761).wrapping_add(seed);
                    ((x % 1000) as f64) / 100.0 - 4.0
                })
                .collect();
            mem.set(p.name.clone(), data);
        } else {
            let x = (pi as u64 + 1)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(seed);
            let v = ((x % 1000) as f64) / 100.0 - 4.0;
            let v = if p.ty == Type::Int { v.trunc() } else { v };
            mem.scalars.insert(p.name.clone(), v);
        }
    }
    mem
}

/// Executes `func` against `mem`, mutating array contents in place.
///
/// # Errors
///
/// Returns [`InterpError`] on out-of-bounds accesses on executed paths,
/// missing arrays, or name-resolution failures (the latter indicate the
/// program was never checked by `frontc::parse`'s sema pass).
pub fn execute(func: &FunctionDef, mem: &mut Memory) -> Result<ExecStats, InterpError> {
    let mut ctx = Ctx {
        scopes: vec![HashMap::new()],
        stats: ExecStats::default(),
    };
    for p in &func.params {
        let binding = if p.is_array() {
            Binding::Array(p.dims.clone(), p.ty)
        } else {
            // parameter values flow in raw (the lowering's Param op does
            // not cast), typed as declared
            let v = mem.scalars.get(&p.name).copied().unwrap_or(0.0);
            Binding::Scalar(v, p.ty)
        };
        ctx.scopes[0].insert(p.name.clone(), binding);
    }
    ctx.run_block(&func.body, mem, &[])?;
    Ok(ctx.stats)
}

#[derive(Clone)]
enum Binding {
    /// Current value and *static* type (tracked because coercions depend
    /// on it, mirroring the lowering's `Binding::Scalar`).
    Scalar(f64, Type),
    /// Array parameter dimensions and element type.
    Array(Vec<usize>, Type),
}

struct Ctx {
    scopes: Vec<HashMap<String, Binding>>,
    stats: ExecStats,
}

impl Ctx {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, InterpError> {
        Err(InterpError {
            message: message.into(),
        })
    }

    fn lookup(&self, name: &str) -> Option<&Binding> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn set_scalar(&mut self, name: &str, value: f64, ty: Type) {
        for scope in self.scopes.iter_mut().rev() {
            if let Some(b) = scope.get_mut(name) {
                *b = Binding::Scalar(value, ty);
                return;
            }
        }
        self.scopes
            .last_mut()
            .expect("scope stack non-empty")
            .insert(name.to_string(), Binding::Scalar(value, ty));
    }

    /// `loop_path` is the structural path of enclosing loops (indices of
    /// `For` statements per block, the same numbering the lowering uses
    /// for `pragma::LoopId`).
    fn run_block(
        &mut self,
        stmts: &[Stmt],
        mem: &mut Memory,
        loop_path: &[u16],
    ) -> Result<(), InterpError> {
        self.scopes.push(HashMap::new());
        let result = self.run_block_inner(stmts, mem, loop_path);
        self.scopes.pop();
        result
    }

    fn run_block_inner(
        &mut self,
        stmts: &[Stmt],
        mem: &mut Memory,
        loop_path: &[u16],
    ) -> Result<(), InterpError> {
        let mut loop_counter: u16 = 0;
        for stmt in stmts {
            match stmt {
                Stmt::Decl { name, ty, init } => {
                    let value = match init {
                        Some(e) => {
                            let (v, t) = self.eval(e, mem)?;
                            coerce(v, t, *ty)
                        }
                        None => 0.0,
                    };
                    self.scopes
                        .last_mut()
                        .expect("scope stack non-empty")
                        .insert(name.clone(), Binding::Scalar(value, *ty));
                }
                Stmt::Assign { target, op, value } => {
                    self.run_assign(target, *op, value, mem)?;
                }
                Stmt::For(l) => {
                    let mut path = loop_path.to_vec();
                    path.push(loop_counter);
                    loop_counter += 1;
                    let key = render_path(&path);
                    let mut i = l.start;
                    while i < l.bound {
                        *self.stats.loop_iterations.entry(key.clone()).or_insert(0) += 1;
                        self.scopes.push(HashMap::new());
                        self.scopes
                            .last_mut()
                            .expect("scope stack non-empty")
                            .insert(l.var.clone(), Binding::Scalar(i as f64, Type::Int));
                        let r = self.run_block_inner(&l.body, mem, &path);
                        self.scopes.pop();
                        r?;
                        i += l.step;
                    }
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let (c, _) = self.eval(cond, mem)?;
                    if c != 0.0 {
                        self.run_block(then_body, mem, loop_path)?;
                    } else {
                        self.run_block(else_body, mem, loop_path)?;
                    }
                }
                Stmt::Return(e) => {
                    // the lowering computes the value and keeps going;
                    // evaluate for effects-on-errors and continue
                    if let Some(e) = e {
                        self.eval(e, mem)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn run_assign(
        &mut self,
        target: &LValue,
        op: AssignOp,
        value: &Expr,
        mem: &mut Memory,
    ) -> Result<(), InterpError> {
        match target {
            LValue::Var(name) => {
                let (rv, rt) = self.eval(value, mem)?;
                let (fv, ft) = if op == AssignOp::Set {
                    (rv, rt)
                } else {
                    let (cur, ct) = match self.lookup(name) {
                        Some(Binding::Scalar(v, t)) => (*v, *t),
                        _ => return self.err(format!("unknown scalar {name:?}")),
                    };
                    apply_compound(op, cur, ct, rv, rt)
                };
                self.set_scalar(name, fv, ft);
                Ok(())
            }
            LValue::ArrayElem { array, indices } => {
                let (rv, rt) = self.eval(value, mem)?;
                let (dims, ety) = self.array_info(array)?;
                let idx = self.flat_index(array, &dims, indices, mem)?;
                let stored = if op == AssignOp::Set {
                    coerce(rv, rt, ety)
                } else {
                    let cur = self.load(array, idx, mem)?;
                    let (v, t) = apply_compound(op, cur, ety, rv, rt);
                    coerce(v, t, ety)
                };
                let buf = mem.get_mut(array).ok_or_else(|| InterpError {
                    message: format!("array {array:?} missing"),
                })?;
                if idx >= buf.len() {
                    return self.err(format!(
                        "store {array}[{idx}] out of bounds ({})",
                        buf.len()
                    ));
                }
                buf[idx] = stored;
                self.stats.stores += 1;
                Ok(())
            }
        }
    }

    /// Dimensions and element type of an array binding.
    fn array_info(&self, name: &str) -> Result<(Vec<usize>, Type), InterpError> {
        match self.lookup(name) {
            Some(Binding::Array(dims, ety)) => Ok((dims.clone(), *ety)),
            _ => self.err(format!("{name:?} is not an array")),
        }
    }

    fn load(&mut self, array: &str, idx: usize, mem: &Memory) -> Result<f64, InterpError> {
        let buf = mem.get(array).ok_or_else(|| InterpError {
            message: format!("array {array:?} missing"),
        })?;
        if idx >= buf.len() {
            return self.err(format!("load {array}[{idx}] out of bounds ({})", buf.len()));
        }
        self.stats.loads += 1;
        Ok(buf[idx])
    }

    fn flat_index(
        &mut self,
        _array: &str,
        dims: &[usize],
        indices: &[Expr],
        mem: &Memory,
    ) -> Result<usize, InterpError> {
        let mut flat: i128 = 0;
        for (d, idx) in indices.iter().enumerate() {
            let (v, _) = self.eval_in(idx, mem)?;
            let ix = v.trunc() as i64;
            let n = dims.get(d).copied().unwrap_or(1) as i128;
            flat = flat * n + ix as i128;
        }
        if flat < 0 || flat > usize::MAX as i128 {
            return Ok(usize::MAX);
        }
        Ok(flat as usize)
    }

    fn eval(&mut self, e: &Expr, mem: &Memory) -> Result<(f64, Type), InterpError> {
        self.eval_in(e, mem)
    }

    fn eval_in(&mut self, e: &Expr, mem: &Memory) -> Result<(f64, Type), InterpError> {
        match e {
            Expr::IntLit(v) => Ok((*v as f64, Type::Int)),
            Expr::FloatLit(v) => Ok((*v, Type::Float)),
            Expr::Var(name) => match self.lookup(name) {
                Some(Binding::Scalar(v, t)) => Ok((*v, *t)),
                Some(Binding::Array(..)) => self.err(format!("array {name:?} used as scalar")),
                None => self.err(format!("unknown variable {name:?}")),
            },
            Expr::ArrayElem { array, indices } => {
                let (dims, ety) = self.array_info(array)?;
                let idx = self.flat_index(array, &dims, indices, mem)?;
                let v = self.load(array, idx, mem)?;
                Ok((v, ety))
            }
            Expr::Binary { op, lhs, rhs } => {
                let (a, at) = self.eval_in(lhs, mem)?;
                let (b, bt) = self.eval_in(rhs, mem)?;
                Ok(eval_binary(*op, a, at, b, bt))
            }
            Expr::Unary { op, expr } => {
                let (v, t) = self.eval_in(expr, mem)?;
                match op {
                    // the lowering negates via `0 - v` (or folds `-c`);
                    // on both int and float paths the result equals `-v`
                    // for every value the pipeline can produce
                    UnOp::Neg => {
                        if t == Type::Int && !matches!(**expr, Expr::IntLit(_)) {
                            // runtime path: 0 - v through int_binop
                            Ok((hir::int_binop(BinOp::Sub, 0.0, v).unwrap_or(0.0), t))
                        } else {
                            Ok((-v, t))
                        }
                    }
                    UnOp::Not => Ok((f64::from(u8::from(v == 0.0)), Type::Int)),
                }
            }
            Expr::Ternary {
                cond,
                then_value,
                else_value,
            } => {
                // both arms evaluate — the lowering emits a Select over
                // two computed inputs, so errors in either arm surface
                let (c, _) = self.eval_in(cond, mem)?;
                let (tv, tt) = self.eval_in(then_value, mem)?;
                let (ev, et) = self.eval_in(else_value, mem)?;
                let ty = if tt == Type::Float || et == Type::Float {
                    Type::Float
                } else {
                    Type::Int
                };
                let tv = coerce(tv, tt, ty);
                let ev = coerce(ev, et, ty);
                Ok((if c != 0.0 { tv } else { ev }, ty))
            }
            Expr::Call { name, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    let (v, t) = self.eval_in(a, mem)?;
                    vals.push(coerce(v, t, Type::Float));
                }
                let a = vals.first().copied().unwrap_or(0.0);
                let b = vals.get(1).copied().unwrap_or(0.0);
                let v = match name.as_str() {
                    "sqrtf" => a.max(0.0).sqrt(),
                    "expf" => a.exp(),
                    "fabsf" => a.abs(),
                    "fmaxf" => a.max(b),
                    "fminf" => a.min(b),
                    other => return self.err(format!("unknown intrinsic {other:?}")),
                };
                Ok((v, Type::Float))
            }
        }
    }
}

fn render_path(path: &[u16]) -> String {
    let mut out = String::new();
    for (i, seg) in path.iter().enumerate() {
        if i > 0 {
            out.push('.');
        }
        out.push('L');
        out.push_str(&seg.to_string());
    }
    out
}

fn coerce(v: f64, from: Type, to: Type) -> f64 {
    if from == to || to != Type::Int {
        v
    } else {
        v.trunc()
    }
}

fn apply_compound(op: AssignOp, cur: f64, ct: Type, rv: f64, rt: Type) -> (f64, Type) {
    let float = ct == Type::Float || rt == Type::Float;
    let ty = if float { Type::Float } else { Type::Int };
    let bin = match op {
        AssignOp::Add => BinOp::Add,
        AssignOp::Sub => BinOp::Sub,
        AssignOp::Mul => BinOp::Mul,
        AssignOp::Div => BinOp::Div,
        AssignOp::Set => unreachable!("Set handled by caller"),
    };
    let v = if float {
        float_arith(bin, cur, rv)
    } else {
        hir::int_binop(bin, cur, rv).unwrap_or(0.0)
    };
    (v, ty)
}

fn eval_binary(op: BinOp, a: f64, at: Type, b: f64, bt: Type) -> (f64, Type) {
    let float = at == Type::Float || bt == Type::Float;
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div if float => {
            (float_arith(op, a, b), Type::Float)
        }
        // `%` has no float op kind: always integer semantics, int result
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
            (hir::int_binop(op, a, b).unwrap_or(0.0), Type::Int)
        }
        BinOp::Lt => (f64::from(a < b), Type::Int),
        BinOp::Le => (f64::from(a <= b), Type::Int),
        BinOp::Gt => (f64::from(a > b), Type::Int),
        BinOp::Ge => (f64::from(a >= b), Type::Int),
        BinOp::Eq => (f64::from(a == b), Type::Int),
        BinOp::Ne => (f64::from(a != b), Type::Int),
        BinOp::And => (f64::from(a != 0.0 && b != 0.0), Type::Int),
        BinOp::Or => (f64::from(a != 0.0 || b != 0.0), Type::Int),
    }
}

fn float_arith(op: BinOp, a: f64, b: f64) -> f64 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => {
            // FDiv-by-zero is defined as 0 in the op model
            if b == 0.0 {
                0.0
            } else {
                a / b
            }
        }
        _ => unreachable!("only arithmetic reaches float_arith"),
    }
}
