"""Raster-calculator expression compiler → one vectorized map_batches.

Re-expresses the reference's expression evaluator
(``RasterCalculator/src/rastercalculator/ProcessExpression.java`` —
precedence parser ``:418-505``, function set ``:1037-1543``) and the 42
MathTools per-cell tools as ONE family: parse an infix expression over
named rasters/constants into a numpy-evaluable AST, then apply it per
tile with NoData propagation (any NoData operand → NoData output,
the contract of e.g. MathTools/src/plugins/Add.java:307).

Grammar: numbers, identifiers, + - * / % ^, comparisons, unary -,
function calls. Functions: sin cos tan arcsin arccos arctan sinh cosh
tanh ln log log2 exp abs sqr sqrt negate reciprocal ceil floor round
truncate isnodata min max pow if and or not.
"""

from __future__ import annotations

import re

import numpy as np

from ..core.rng import NODATA

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op><=|>=|!=|==|[-+*/%^(),<>]))")

_FUNCS1 = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "arcsin": np.arcsin, "arccos": np.arccos, "arctan": np.arctan,
    "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "ln": np.log, "log": np.log10, "log2": np.log2, "exp": np.exp,
    "abs": np.abs, "sqr": lambda a: a * a, "sqrt": np.sqrt,
    "negate": np.negative, "reciprocal": lambda a: 1.0 / a,
    "ceil": np.ceil, "floor": np.floor, "round": np.round,
    "truncate": np.trunc, "not": lambda a: (a == 0).astype(np.float64),
}
_FUNCS2 = {
    "min": np.minimum, "max": np.maximum, "pow": np.power,
    "and": lambda a, b: ((a != 0) & (b != 0)).astype(np.float64),
    "or": lambda a, b: ((a != 0) | (b != 0)).astype(np.float64),
}


class _Parser:
    """Recursive-descent with the reference's precedence:
    comparisons < add/sub < mul/div/mod < power < unary < atoms."""

    def __init__(self, text: str):
        self.toks = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise ValueError(f"bad token at {text[pos:]!r}")
                break
            pos = m.end()
            self.toks.append(m.group("num") or m.group("name") or m.group("op"))
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def eat(self, tok=None):
        t = self.peek()
        if tok is not None and t != tok:
            raise ValueError(f"expected {tok}, got {t}")
        self.i += 1
        return t

    def parse(self):
        node = self.cmp()
        if self.peek() is not None:
            raise ValueError(f"trailing tokens: {self.toks[self.i:]}")
        return node

    def cmp(self):
        n = self.addsub()
        while self.peek() in ("<", ">", "<=", ">=", "==", "!="):
            op = self.eat()
            n = ("cmp", op, n, self.addsub())
        return n

    def addsub(self):
        n = self.muldiv()
        while self.peek() in ("+", "-"):
            op = self.eat()
            n = ("bin", op, n, self.muldiv())
        return n

    def muldiv(self):
        n = self.power()
        while self.peek() in ("*", "/", "%"):
            op = self.eat()
            n = ("bin", op, n, self.power())
        return n

    def power(self):
        n = self.unary()
        if self.peek() == "^":
            self.eat()
            n = ("bin", "^", n, self.power())  # right-assoc
        return n

    def unary(self):
        if self.peek() == "-":
            self.eat()
            return ("neg", self.unary())
        return self.atom()

    def atom(self):
        t = self.peek()
        if t == "(":
            self.eat()
            n = self.cmp()
            self.eat(")")
            return n
        if t is None:
            raise ValueError("unexpected end of expression")
        self.eat()
        if re.fullmatch(r"\d+\.?\d*(?:[eE][+-]?\d+)?", t):
            return ("const", float(t))
        if self.peek() == "(":  # function call
            self.eat("(")
            args = [self.cmp()]
            while self.peek() == ",":
                self.eat(",")
                args.append(self.cmp())
            self.eat(")")
            return ("call", t.lower(), args)
        return ("var", t)


_BINOPS = {"+": np.add, "-": np.subtract, "*": np.multiply,
           "/": np.divide, "%": np.mod, "^": np.power}
_CMPOPS = {"<": np.less, ">": np.greater, "<=": np.less_equal,
           ">=": np.greater_equal, "==": np.equal, "!=": np.not_equal}


def _eval(node, env: dict, nodata_mask):
    kind = node[0]
    if kind == "const":
        return node[1], nodata_mask
    if kind == "var":
        a = env[node[1]]
        m = (a == NODATA)
        return a, (m if nodata_mask is None else (nodata_mask | m))
    if kind == "neg":
        v, m = _eval(node[1], env, nodata_mask)
        return -v, m
    if kind in ("bin", "cmp"):
        lv, m = _eval(node[2], env, nodata_mask)
        rv, m = _eval(node[3], env, m)
        with np.errstate(all="ignore"):
            out = (_BINOPS if kind == "bin" else _CMPOPS)[node[1]](lv, rv)
        if kind == "cmp":
            out = out.astype(np.float64) if isinstance(out, np.ndarray) else float(out)
        return out, m
    if kind == "call":
        name, args = node[1], node[2]
        if name == "isnodata":
            a = env[args[0][1]] if args[0][0] == "var" else _eval(args[0], env, None)[0]
            return (np.asarray(a) == NODATA).astype(np.float64), nodata_mask
        if name == "if":
            c, m = _eval(args[0], env, nodata_mask)
            t, m = _eval(args[1], env, m)
            f, m = _eval(args[2], env, m)
            return np.where(np.asarray(c) != 0, t, f), m
        vals = []
        m = nodata_mask
        for a in args:
            v, m = _eval(a, env, m)
            vals.append(v)
        with np.errstate(all="ignore"):
            if len(vals) == 1:
                return _FUNCS1[name](np.asarray(vals[0], dtype=np.float64)), m
            return _FUNCS2[name](*vals), m
    raise ValueError(f"bad node {node!r}")


def compile_expression(expr: str):
    """expr → fn(env: {name: ndarray}) -> ndarray with NoData propagation."""
    ast = _Parser(expr).parse()

    def fn(env: dict) -> np.ndarray:
        v, mask = _eval(ast, env, None)
        v = np.asarray(v, dtype=np.float64)
        if mask is not None and mask is not False:
            v = np.where(mask, NODATA, v)
        return v

    return fn


def raster_calculator(datasets: dict, expr: str):
    """Evaluate `expr` over co-tiled rasters: zip the tile Datasets on
    tile_id (groupby — co-partitioned reads make this near-local) and
    apply the compiled expression per tile."""
    import pandas as pd

    fn = compile_expression(expr)
    names = list(datasets)

    tagged = None
    for name, ds in datasets.items():
        def tag(batch, _n=name):
            batch["src"] = _n
            return batch
        t = ds.map_batches(tag, batch_format="pandas")
        tagged = t if tagged is None else tagged.union(t)

    def per_tile(g: pd.DataFrame) -> pd.DataFrame:
        env = {r.src: np.asarray(r.data, dtype=np.float64) for r in g.itertuples()}
        if len(env) < len(names):
            raise ValueError(f"missing raster(s) for tile {g['tile_id'].iloc[0]}")
        return pd.DataFrame({"tile_id": [int(g["tile_id"].iloc[0])],
                             "data": [fn(env)]})

    from ..stages.util import combine, groupwise_combine
    return combine(tagged, "tile_id", groupwise_combine(per_tile, "tile_id"))
