//! Symbolic integer index expressions.
//!
//! Layout and loop transformations rewrite the index expressions used by
//! tensor accesses (e.g. `split` turns `i` into `i / F` and `i % F`, `fuse`
//! turns `(i, j)` into `i * N + j`). This module provides the small integer
//! expression language those rewrites operate on, together with a
//! constant-folding simplifier and an evaluator.
//!
//! Expressions are immutable trees behind [`Arc`] so that sharing subterms
//! (which layout rewriting produces a lot of) is cheap and the resulting
//! trees can be simulated from worker threads.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A symbolic integer variable (usually a loop variable).
///
/// Identity is the numeric `id`; `name` is carried only for display.
#[derive(Clone, Debug, Eq)]
pub struct Var {
    id: u32,
    name: Arc<str>,
}

impl Var {
    /// Creates a variable with an explicit id and display name.
    ///
    /// Callers are responsible for id uniqueness; [`VarGen`] is the usual
    /// way to allocate fresh ids.
    pub fn new(id: u32, name: impl Into<Arc<str>>) -> Self {
        Self {
            id,
            name: name.into(),
        }
    }

    /// Returns the unique id of this variable.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Returns the display name of this variable.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl PartialEq for Var {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl std::hash::Hash for Var {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// Allocator for fresh [`Var`] ids.
#[derive(Debug, Default, Clone)]
pub struct VarGen {
    next: u32,
}

impl VarGen {
    /// Creates a generator starting at id 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh variable with the given display name.
    pub fn fresh(&mut self, name: &str) -> Var {
        let id = self.next;
        self.next += 1;
        Var::new(id, name.to_string())
    }
}

/// Binary integer operators available in index expressions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Floor division (rounds toward negative infinity).
    FloorDiv,
    /// Euclidean remainder paired with [`BinOp::FloorDiv`].
    Mod,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// A symbolic integer expression.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Integer literal.
    Const(i64),
    /// Variable reference.
    Var(Var),
    /// Binary operation.
    Bin(BinOp, Arc<Expr>, Arc<Expr>),
}

impl Expr {
    /// Builds a constant expression.
    pub fn c(v: i64) -> Expr {
        Expr::Const(v)
    }

    /// Builds a variable reference.
    pub fn v(var: &Var) -> Expr {
        Expr::Var(var.clone())
    }

    fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        // Constant folding and algebraic identities keep rewritten access
        // expressions readable and cheap to evaluate.
        use BinOp::*;
        if let (Expr::Const(x), Expr::Const(y)) = (&a, &b) {
            return Expr::Const(match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                FloorDiv => {
                    if *y == 0 {
                        // Division by zero is an internal bug in a
                        // transformation; surface it loudly.
                        panic!("index expression divides by zero")
                    }
                    x.div_euclid(*y)
                }
                Mod => {
                    if *y == 0 {
                        panic!("index expression mod by zero")
                    }
                    x.rem_euclid(*y)
                }
                Min => (*x).min(*y),
                Max => (*x).max(*y),
            });
        }
        match (op, &a, &b) {
            (Add, e, Expr::Const(0)) | (Sub, e, Expr::Const(0)) => return e.clone(),
            (Add, Expr::Const(0), e) => return e.clone(),
            (Mul, _, Expr::Const(0)) | (Mul, Expr::Const(0), _) => return Expr::Const(0),
            (Mul, e, Expr::Const(1)) | (Mul, Expr::Const(1), e) => return e.clone(),
            (FloorDiv, e, Expr::Const(1)) => return e.clone(),
            (Mod, _, Expr::Const(1)) => return Expr::Const(0),
            _ => {}
        }
        Expr::Bin(op, Arc::new(a), Arc::new(b))
    }

    /// Returns `self + rhs` with simplification.
    pub fn add(&self, rhs: &Expr) -> Expr {
        Expr::bin(BinOp::Add, self.clone(), rhs.clone())
    }

    /// Returns `self - rhs` with simplification.
    pub fn sub(&self, rhs: &Expr) -> Expr {
        Expr::bin(BinOp::Sub, self.clone(), rhs.clone())
    }

    /// Returns `self * rhs` with simplification.
    pub fn mul(&self, rhs: &Expr) -> Expr {
        Expr::bin(BinOp::Mul, self.clone(), rhs.clone())
    }

    /// Returns `self / rhs` (floor division) with simplification.
    pub fn floordiv(&self, rhs: &Expr) -> Expr {
        Expr::bin(BinOp::FloorDiv, self.clone(), rhs.clone())
    }

    /// Returns `self % rhs` (Euclidean) with simplification.
    pub fn modulo(&self, rhs: &Expr) -> Expr {
        Expr::bin(BinOp::Mod, self.clone(), rhs.clone())
    }

    /// Returns `min(self, rhs)` with simplification.
    pub fn min_e(&self, rhs: &Expr) -> Expr {
        Expr::bin(BinOp::Min, self.clone(), rhs.clone())
    }

    /// Returns `max(self, rhs)` with simplification.
    pub fn max_e(&self, rhs: &Expr) -> Expr {
        Expr::bin(BinOp::Max, self.clone(), rhs.clone())
    }

    /// Convenience: `self + c`.
    pub fn add_c(&self, c: i64) -> Expr {
        self.add(&Expr::Const(c))
    }

    /// Convenience: `self * c`.
    pub fn mul_c(&self, c: i64) -> Expr {
        self.mul(&Expr::Const(c))
    }

    /// Convenience: `self / c` (floor).
    pub fn div_c(&self, c: i64) -> Expr {
        self.floordiv(&Expr::Const(c))
    }

    /// Convenience: `self % c`.
    pub fn mod_c(&self, c: i64) -> Expr {
        self.modulo(&Expr::Const(c))
    }

    /// Evaluates the expression under a variable environment.
    ///
    /// # Panics
    ///
    /// Panics if a variable is missing from `env`; that always indicates a
    /// lowering bug, not a user error.
    pub fn eval(&self, env: &Env) -> i64 {
        match self {
            Expr::Const(v) => *v,
            Expr::Var(v) => env.get(v),
            Expr::Bin(op, a, b) => {
                let x = a.eval(env);
                let y = b.eval(env);
                match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::FloorDiv => x.div_euclid(y),
                    BinOp::Mod => x.rem_euclid(y),
                    BinOp::Min => x.min(y),
                    BinOp::Max => x.max(y),
                }
            }
        }
    }

    /// Substitutes variables by expressions.
    ///
    /// Variables not present in `map` are left untouched.
    pub fn subst(&self, map: &HashMap<u32, Expr>) -> Expr {
        match self {
            Expr::Const(_) => self.clone(),
            Expr::Var(v) => map.get(&v.id).cloned().unwrap_or_else(|| self.clone()),
            Expr::Bin(op, a, b) => Expr::bin(*op, a.subst(map), b.subst(map)),
        }
    }

    /// Collects the ids of all variables referenced by this expression.
    pub fn collect_vars(&self, out: &mut Vec<Var>) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(v) => {
                if !out.iter().any(|o| o.id == v.id) {
                    out.push(v.clone());
                }
            }
            Expr::Bin(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

    /// Returns true if the expression references the given variable.
    pub fn uses_var(&self, id: u32) -> bool {
        match self {
            Expr::Const(_) => false,
            Expr::Var(v) => v.id == id,
            Expr::Bin(_, a, b) => a.uses_var(id) || b.uses_var(id),
        }
    }

    /// Inclusive value range `(lo, hi)` when every variable ranges over
    /// `0..extents[id]`; `None` when a variable has no (positive) extent,
    /// a divisor is not a positive constant, or the bounds overflow.
    pub fn bounds(&self, extents: &VarExtents) -> Option<(i64, i64)> {
        match self {
            Expr::Const(c) => Some((*c, *c)),
            Expr::Var(v) => match extents.get(&v.id) {
                Some(&n) if n > 0 => Some((0, n - 1)),
                _ => None,
            },
            Expr::Bin(op, a, b) => {
                let (al, ah) = a.bounds(extents)?;
                if let (BinOp::FloorDiv | BinOp::Mod, Expr::Const(d)) = (op, b.as_ref()) {
                    let d = *d;
                    if d <= 0 {
                        return None;
                    }
                    return Some(match op {
                        BinOp::FloorDiv => (al.div_euclid(d), ah.div_euclid(d)),
                        _ if al >= 0 && ah < d => (al, ah),
                        _ => (0, d - 1),
                    });
                }
                let (bl, bh) = b.bounds(extents)?;
                match op {
                    BinOp::Add => Some((al.checked_add(bl)?, ah.checked_add(bh)?)),
                    BinOp::Sub => Some((al.checked_sub(bh)?, ah.checked_sub(bl)?)),
                    BinOp::Mul => {
                        let ps = [
                            al.checked_mul(bl)?,
                            al.checked_mul(bh)?,
                            ah.checked_mul(bl)?,
                            ah.checked_mul(bh)?,
                        ];
                        Some((*ps.iter().min()?, *ps.iter().max()?))
                    }
                    BinOp::Min => Some((al.min(bl), ah.min(bh))),
                    BinOp::Max => Some((al.max(bl), ah.max(bh))),
                    BinOp::FloorDiv | BinOp::Mod => None,
                }
            }
        }
    }

    /// The expression as `c + Σ kᵢ·atomᵢ`: sums, differences and products
    /// by a constant are distributed, and anything else (a variable, or a
    /// division, modulo, min/max or non-constant product) is an atom.
    /// Structurally equal atoms are merged and zero terms dropped, so two
    /// expressions with equal forms are equal for every binding.
    fn linear_form(&self) -> (Vec<(Expr, i64)>, i64) {
        fn walk(e: &Expr, k: i64, terms: &mut Vec<(Expr, i64)>, c: &mut i64) {
            match e {
                Expr::Const(v) => return *c += k * v,
                Expr::Bin(BinOp::Add, a, b) => {
                    walk(a, k, terms, c);
                    return walk(b, k, terms, c);
                }
                Expr::Bin(BinOp::Sub, a, b) => {
                    walk(a, k, terms, c);
                    return walk(b, -k, terms, c);
                }
                Expr::Bin(BinOp::Mul, a, b) => {
                    if let (x, Expr::Const(m)) | (Expr::Const(m), x) = (a.as_ref(), b.as_ref()) {
                        return walk(x, k * m, terms, c);
                    }
                }
                _ => {}
            }
            match terms.iter_mut().find(|(t, _)| t == e) {
                Some((_, kk)) => *kk += k,
                None => terms.push((e.clone(), k)),
            }
        }
        let mut terms = Vec::new();
        let mut c = 0;
        walk(self, 1, &mut terms, &mut c);
        terms.retain(|(_, k)| *k != 0);
        (terms, c)
    }

    /// Rebuilds `c + Σ kᵢ·atomᵢ` from a linear form.
    fn from_linear(terms: &[(Expr, i64)], c: i64) -> Expr {
        terms
            .iter()
            .fold(Expr::c(0), |acc, (t, k)| acc.add(&t.mul_c(*k)))
            .add_c(c)
    }

    /// Range-aware folding of `e / d` and `e % d` for constant `d > 0`:
    /// when the extents prove `e = q·d + r` with `0 <= r < d` (the terms
    /// of `e` whose coefficients `d` divides form `q·d`, the rest `r`),
    /// `e / d` becomes `q` and `e % d` becomes `r`. Every other node is
    /// rebuilt through the simplifying constructors. The result equals
    /// `self` for every binding within the extents.
    ///
    /// For example, with `o < 8` and `i < 64`, `(o*64 + i) / 512` folds
    /// to `0` and `(o*64 + i) % 512` to `o*64 + i`.
    pub fn fold_ranges(&self, extents: &VarExtents) -> Expr {
        let Expr::Bin(op, a, b) = self else {
            return self.clone();
        };
        let a = a.fold_ranges(extents);
        let b = b.fold_ranges(extents);
        if let (BinOp::FloorDiv | BinOp::Mod, Expr::Const(d)) = (op, &b) {
            let d = *d;
            if d > 0 {
                let (terms, c) = a.linear_form();
                let (q, r): (Vec<_>, Vec<_>) = terms.into_iter().partition(|(_, k)| k % d == 0);
                let r_expr = Expr::from_linear(&r, c.rem_euclid(d));
                if matches!(r_expr.bounds(extents), Some((lo, hi)) if lo >= 0 && hi < d) {
                    return match op {
                        // `a` itself is its remainder: keep its shape.
                        BinOp::Mod if q.is_empty() && c.div_euclid(d) == 0 => a,
                        BinOp::Mod => r_expr,
                        _ => {
                            let q: Vec<_> = q.into_iter().map(|(t, k)| (t, k / d)).collect();
                            Expr::from_linear(&q, c.div_euclid(d))
                        }
                    };
                }
            }
        }
        Expr::bin(*op, a, b)
    }

    /// Coefficient of variable `var` when the expression is affine in it
    /// (`base + k·var` with `base` free of `var`), else `None` — `var`
    /// under a division, modulo, min/max or a non-constant product.
    pub fn affine_coeff(&self, var: u32) -> Option<i64> {
        let (terms, _) = self.linear_form();
        let mut k = 0;
        for (atom, coeff) in &terms {
            match atom {
                Expr::Var(v) if v.id == var => k += coeff,
                other if other.uses_var(var) => return None,
                _ => {}
            }
        }
        Some(k)
    }

    /// True when `self` and `other` have the same linear form, which
    /// proves them equal for every binding (the converse need not hold).
    pub fn linear_eq(&self, other: &Expr) -> bool {
        self.sub(other).linear_form() == (Vec::new(), 0)
    }
}

/// Extents of index variables (variable id → trip count; the variable
/// ranges over `0..extent`), the facts range-aware folding relies on.
pub type VarExtents = HashMap<u32, i64>;

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Bin(op, a, b) => {
                let s = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::FloorDiv => "/",
                    BinOp::Mod => "%",
                    BinOp::Min => return write!(f, "min({a}, {b})"),
                    BinOp::Max => return write!(f, "max({a}, {b})"),
                };
                write!(f, "({a} {s} {b})")
            }
        }
    }
}

/// Variable binding environment used during evaluation.
#[derive(Debug, Default, Clone)]
pub struct Env {
    vals: HashMap<u32, i64>,
}

impl Env {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds `var` to `val`, replacing any previous binding.
    pub fn bind(&mut self, var: &Var, val: i64) {
        self.vals.insert(var.id(), val);
    }

    /// Binds a variable by raw id.
    pub fn bind_id(&mut self, id: u32, val: i64) {
        self.vals.insert(id, val);
    }

    /// Looks up the value of `var`.
    ///
    /// # Panics
    ///
    /// Panics when the variable is unbound (a lowering bug).
    pub fn get(&self, var: &Var) -> i64 {
        match self.vals.get(&var.id()) {
            Some(v) => *v,
            None => panic!("unbound index variable `{}` (id {})", var.name(), var.id()),
        }
    }

    /// Looks up a binding by raw id, if present.
    pub fn get_id(&self, id: u32) -> Option<i64> {
        self.vals.get(&id).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars() -> (VarGen, Var, Var) {
        let mut g = VarGen::new();
        let i = g.fresh("i");
        let j = g.fresh("j");
        (g, i, j)
    }

    #[test]
    fn constant_folding() {
        let e = Expr::c(6).mul(&Expr::c(7));
        assert_eq!(e, Expr::Const(42));
        let e = Expr::c(7).div_c(2);
        assert_eq!(e, Expr::Const(3));
        let e = Expr::c(7).mod_c(4);
        assert_eq!(e, Expr::Const(3));
        assert_eq!(Expr::c(3).min_e(&Expr::c(5)), Expr::Const(3));
        assert_eq!(Expr::c(3).max_e(&Expr::c(5)), Expr::Const(5));
    }

    #[test]
    fn identities() {
        let (_, i, _) = vars();
        let iv = Expr::v(&i);
        assert_eq!(iv.add_c(0), iv);
        assert_eq!(iv.mul_c(1), iv);
        assert_eq!(iv.mul_c(0), Expr::Const(0));
        assert_eq!(iv.div_c(1), iv);
        assert_eq!(iv.mod_c(1), Expr::Const(0));
    }

    #[test]
    fn eval_split_roundtrip() {
        // i -> (i / 4) * 4 + i % 4 must be the identity for all i.
        let (_, i, _) = vars();
        let iv = Expr::v(&i);
        let recomposed = iv.div_c(4).mul_c(4).add(&iv.mod_c(4));
        for x in 0..64 {
            let mut env = Env::new();
            env.bind(&i, x);
            assert_eq!(recomposed.eval(&env), x);
        }
    }

    #[test]
    fn subst_replaces_vars() {
        let (_, i, j) = vars();
        let e = Expr::v(&i).add(&Expr::v(&j)).mul_c(2);
        let mut map = HashMap::new();
        map.insert(i.id(), Expr::c(3));
        map.insert(j.id(), Expr::c(4));
        assert_eq!(e.subst(&map), Expr::Const(14));
    }

    #[test]
    fn collect_and_uses() {
        let (_, i, j) = vars();
        let e = Expr::v(&i).add(&Expr::v(&j)).add(&Expr::v(&i));
        let mut vs = Vec::new();
        e.collect_vars(&mut vs);
        assert_eq!(vs.len(), 2);
        assert!(e.uses_var(i.id()));
        assert!(e.uses_var(j.id()));
        assert!(!e.uses_var(999));
    }

    #[test]
    fn display_is_readable() {
        let (_, i, _) = vars();
        let e = Expr::v(&i).div_c(4);
        assert_eq!(format!("{e}"), "(i / 4)");
    }

    fn ext(pairs: &[(&Var, i64)]) -> VarExtents {
        pairs.iter().map(|(v, n)| (v.id(), *n)).collect()
    }

    /// Every binding of `vars` within `extents` evaluates both sides equal.
    fn assert_same_values(a: &Expr, b: &Expr, vars: &[&Var], extents: &VarExtents) {
        let n: Vec<i64> = vars.iter().map(|v| extents[&v.id()]).collect();
        let total: i64 = n.iter().product();
        for flat in 0..total {
            let mut env = Env::new();
            let mut rest = flat;
            for (v, &e) in vars.iter().zip(&n) {
                env.bind(v, rest % e);
                rest /= e;
            }
            assert_eq!(a.eval(&env), b.eval(&env), "{a} vs {b}");
        }
    }

    #[test]
    fn fold_div_of_in_range_sum_to_quotient() {
        // (o*64 + i) / 512 with o < 8, i < 64: r = o*64 + i < 512, q = 0.
        let (_, o, i) = vars();
        let e = Expr::v(&o).mul_c(64).add(&Expr::v(&i));
        let x = ext(&[(&o, 8), (&i, 64)]);
        assert_eq!(e.div_c(512).fold_ranges(&x), Expr::c(0));
        // (o*512 + i) / 512 with i < 512: q = o.
        let e = Expr::v(&o).mul_c(512).add(&Expr::v(&i));
        let x = ext(&[(&o, 3), (&i, 512)]);
        let folded = e.div_c(512).fold_ranges(&x);
        assert_eq!(folded, Expr::v(&o));
        assert_same_values(&folded, &e.div_c(512), &[&o, &i], &x);
    }

    #[test]
    fn fold_mod_of_in_range_sum_to_remainder() {
        let (_, o, i) = vars();
        // r is the whole dividend: `%` disappears and the shape is kept.
        let e = Expr::v(&o).mul_c(64).add(&Expr::v(&i));
        let x = ext(&[(&o, 8), (&i, 64)]);
        assert_eq!(e.mod_c(512).fold_ranges(&x), e);
        // (o*512 + i + 1024) % 512 with i < 512: r = i.
        let e = Expr::v(&o).mul_c(512).add(&Expr::v(&i)).add_c(1024);
        let x = ext(&[(&o, 3), (&i, 512)]);
        let folded = e.mod_c(512).fold_ranges(&x);
        assert_eq!(folded, Expr::v(&i));
        assert_same_values(&folded, &e.mod_c(512), &[&o, &i], &x);
    }

    #[test]
    fn fold_reaches_nested_div_mod_chains() {
        // The reshape index `(((a*2 + b)*64 + c) / 128) % 128` with
        // a < 128, b < 2, c < 64 is just `a`.
        let (mut g, a, b) = vars();
        let c = g.fresh("c");
        let flat = Expr::v(&a)
            .mul_c(2)
            .add(&Expr::v(&b))
            .mul_c(64)
            .add(&Expr::v(&c));
        let e = flat.div_c(128).mod_c(128);
        let x = ext(&[(&a, 128), (&b, 2), (&c, 64)]);
        let folded = e.fold_ranges(&x);
        assert_eq!(folded, Expr::v(&a));
        assert_eq!(folded.affine_coeff(a.id()), Some(1));
        assert_same_values(&folded, &e, &[&a, &b, &c], &x);
    }

    #[test]
    fn no_fold_when_remainder_can_reach_divisor() {
        // (o*4 + i) with i < 5: r = i reaches 4, so neither folds.
        let (_, o, i) = vars();
        let e = Expr::v(&o).mul_c(4).add(&Expr::v(&i));
        let x = ext(&[(&o, 3), (&i, 5)]);
        assert_eq!(e.div_c(4).fold_ranges(&x), e.div_c(4));
        assert_eq!(e.mod_c(4).fold_ranges(&x), e.mod_c(4));
        // A variable without a known extent never folds.
        let e = Expr::v(&i).div_c(4);
        assert_eq!(e.fold_ranges(&ext(&[(&o, 3)])), e);
        // Nor does a negative remainder: (o*4 - 1) / 4 with o >= 0.
        let e = Expr::v(&o).mul_c(4).sub(&Expr::c(1)).sub(&Expr::v(&i));
        assert_eq!(e.div_c(4).fold_ranges(&x), e.div_c(4));
    }

    #[test]
    fn affine_coeff_and_linear_eq() {
        let (_, i, j) = vars();
        let e = Expr::v(&i)
            .mul_c(3)
            .add(&Expr::v(&j))
            .mul_c(2)
            .sub(&Expr::v(&i));
        assert_eq!(e.affine_coeff(i.id()), Some(5));
        assert_eq!(e.affine_coeff(j.id()), Some(2));
        assert_eq!(e.affine_coeff(99), Some(0));
        assert_eq!(Expr::v(&i).div_c(2).affine_coeff(i.id()), None);
        assert_eq!(Expr::v(&i).mul(&Expr::v(&j)).affine_coeff(i.id()), None);
        assert_eq!(Expr::v(&j).div_c(2).affine_coeff(i.id()), Some(0));
        let f = Expr::v(&j).mul_c(2).add(&Expr::v(&i).mul_c(5));
        assert!(e.linear_eq(&f));
        assert!(!e.linear_eq(&f.add_c(1)));
    }

    #[test]
    fn bounds_follow_interval_arithmetic() {
        let (_, i, j) = vars();
        let x = ext(&[(&i, 4), (&j, 10)]);
        let e = Expr::v(&i).mul_c(10).add(&Expr::v(&j));
        assert_eq!(e.bounds(&x), Some((0, 39)));
        assert_eq!(e.div_c(8).bounds(&x), Some((0, 4)));
        assert_eq!(e.mod_c(8).bounds(&x), Some((0, 7)));
        assert_eq!(Expr::v(&j).mod_c(16).bounds(&x), Some((0, 9)));
        assert_eq!(Expr::v(&i).sub(&Expr::v(&j)).bounds(&x), Some((-9, 3)));
        assert_eq!(Expr::v(&i).bounds(&VarExtents::new()), None);
    }

    #[test]
    fn floor_division_is_euclidean() {
        let e = Expr::c(-7).div_c(2);
        assert_eq!(e, Expr::Const(-4));
        let e = Expr::c(-7).mod_c(2);
        assert_eq!(e, Expr::Const(1));
    }
}
