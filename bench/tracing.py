"""Span tracing around the public functions of each mmalg layer.

The tracer replaces every public function it knows with a timing wrapper, at
every module that binds it: ``cli``, ``transforms`` and ``recursion`` import
``verify_brent``, ``mat_classical_multiply`` and the others by name, so
patching only the defining module would miss those calls.  The ``Matrix``
kernels are wrapped on the class.  Nothing under ``src/`` changes; ``install``
and ``uninstall`` swap the attributes in and out, so untraced passes run the
program exactly as shipped.

A span is (name, start, end, parent).  Spans are folded as they close into
one record per (parent, name) edge -- calls, total seconds, self seconds --
because a threshold-1 product opens hundreds of thousands of kernel spans and
keeping each one would dominate memory.  Self time is a span's duration minus
the time its direct child spans cover.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# Public function name -> layer it belongs to.
FUNCTIONS = {
    "mat_classical_multiply": "exact_algebra",
    "mat_inverse": "exact_algebra",
    "parse_matrix": "exact_algebra",
    "format_matrix": "exact_algebra",
    "random_matrix": "exact_algebra",
    "parse_algorithm": "bilinear_core",
    "format_algorithm": "bilinear_core",
    "load_algorithm": "bilinear_core",
    "dump_algorithm": "bilinear_core",
    "verify_brent": "bilinear_core",
    "verify_trilinear_random": "bilinear_core",
    "apply_elementary": "bilinear_core",
    "classical": "generators",
    "strassen_222": "generators",
    "pan_aggregation": "generators",
    "dual": "transforms",
    "tensor_product": "transforms",
    "squareify": "transforms",
    "apply_equivalence": "transforms",
    "random_equivalence": "transforms",
    "parse_transform": "transforms",
    "format_transform": "transforms",
    "load_transform": "transforms",
    "dump_transform": "transforms",
    "recursive_multiply": "recursion",
    "recursive_invert": "recursion",
    "multiply_via_inversion": "recursion",
    "cost_model": "recursion",
    "main": "cli",
    "cmd_gen": "cli",
    "cmd_verify": "cli",
    "cmd_info": "cli",
    "cmd_bounds": "cli",
    "cmd_dual": "cli",
    "cmd_product": "cli",
    "cmd_square": "cli",
    "cmd_equiv": "cli",
    "cmd_multiply": "cli",
    "cmd_invert": "cli",
    "cmd_bench": "cli",
}

ELEMENTWISE = ("__add__", "__sub__", "__neg__", "scale")
BLOCK = ("submatrix", "from_blocks", "embed")

GENERATORS = ("classical", "strassen_222", "pan_aggregation")
REVERIFY_PARENTS = ("cli.cmd_dual", "cli.cmd_product", "cli.cmd_square", "cli.cmd_equiv")
CLI_COMMANDS = ("gen", "verify", "dual", "product", "square", "equiv", "info")


def _key(name: str) -> str:
    if name in ELEMENTWISE or name in BLOCK:
        return f"exact_algebra.Matrix.{name}"
    return f"{FUNCTIONS[name]}.{name}"


# Count hooks: hook(tracer, frame, args, result), run after the span closes.

def _count_classical(tr, frame, args, result):
    a, b = args[0], args[1]
    tr.counts["madd"] += a.rows * a.cols * b.cols


def _count_elementwise(tr, frame, args, result):
    tr.counts["elementwise_entries"] += args[0].rows * args[0].cols


def _count_block(tr, frame, args, result):
    tr.counts["block_entries"] += result.rows * result.cols


def _count_embed(tr, frame, args, result):
    source = args[0]
    if result is not source:
        tr.counts["block_entries"] += result.rows * result.cols
    parent = tr.stack[-1] if tr.stack else None
    if parent is not None and parent[0] == "recursion.recursive_multiply":
        parent[2].append((result.rows, result.cols))
    else:
        # Remember where a padded operand came from, by identity, so the
        # product it feeds can be charged with its useful shape.
        tr.origin[id(result)] = (result, source.rows, source.cols)


def _count_multiply(tr, frame, args, result):
    a, b = args[1], args[2]
    report = result[1]
    tr.counts["bilinear_mults"] += report.bilinear_mults
    tr.counts["additions"] += report.additions
    tr.counts["scalar_mults"] += report.scalar_mults
    shape_a = (a.rows, a.cols)
    shape_b = (b.rows, b.cols)
    got = tr.origin.get(id(a))
    if got is not None and got[0] is a:
        shape_a = got[1:]
    got = tr.origin.get(id(b))
    if got is not None and got[0] is b:
        shape_b = got[1:]
    tr.origin.clear()
    tr.counts["useful_mkn"] += shape_a[0] * shape_a[1] * shape_b[1]
    targets = frame[2]
    if len(targets) >= 2:
        tr.counts["padded_mkn"] += targets[0][0] * targets[0][1] * targets[1][1]
    else:
        tr.counts["padded_mkn"] += a.rows * a.cols * b.cols


def _count_parse(tr, frame, args, result):
    tr.counts["parse_lines"] += args[0].count("\n") + 1


def _count_verify_brent(tr, frame, args, result):
    alg = args[0]
    tr.counts["verify_brent_terms"] += sum(
        len(u) * len(v) * len(w) for u, v, w in zip(alg.u, alg.v, alg.w)
    )


def _count_generated(tr, frame, args, result):
    tr.counts["generated_products"] += result.rank


HOOKS = {
    "mat_classical_multiply": _count_classical,
    "__add__": _count_elementwise,
    "__sub__": _count_elementwise,
    "__neg__": _count_elementwise,
    "scale": _count_elementwise,
    "submatrix": _count_block,
    "from_blocks": _count_block,
    "embed": _count_embed,
    "recursive_multiply": _count_multiply,
    "parse_algorithm": _count_parse,
    "verify_brent": _count_verify_brent,
    "classical": _count_generated,
    "strassen_222": _count_generated,
    "pan_aggregation": _count_generated,
}


class Tracer:
    """Folds spans into per-edge records; ``reset`` starts a new pass."""

    def __init__(self, package: str = "mmalg"):
        self.stack = []
        self.edges = {}
        self.counts = Counter()
        self.origin = {}
        self.patches = []
        self.missing = []
        self.hook_errors = 0
        self._collect(package)

    def reset(self):
        self.stack.clear()
        self.edges = {}
        self.counts = Counter()
        self.origin.clear()

    def _wrap(self, name, fn):
        key = _key(name)
        hook = HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [key, 0.0, []]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                stack.pop()
                edge_key = (parent[0] if parent else None, key)
                edge = tracer.edges.get(edge_key)
                if edge is None:
                    edge = tracer.edges[edge_key] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += took
                edge[2] += took - frame[1]
                if parent is not None:
                    parent[1] += took
            if hook is not None:
                try:
                    hook(tracer, frame, args, result)
                except (AttributeError, IndexError, TypeError):
                    # A changed signature must not fail the traced call.
                    tracer.hook_errors += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def _collect(self, package):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        wrappers = {}
        for name in FUNCTIONS:
            found = False
            for module in modules:
                fn = module.__dict__.get(name)
                if not callable(fn) or getattr(fn, "__module__", "").split(".")[0] != package:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn)
                self.patches.append((module, name, fn, wrappers[id(fn)]))
                found = True
            if not found:
                self.missing.append(name)
        matrix = sys.modules[f"{package}.exact_algebra"].Matrix
        for name in ELEMENTWISE + BLOCK:
            raw = matrix.__dict__.get(name)
            if raw is None:
                self.missing.append(f"Matrix.{name}")
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self.patches.append((matrix, name, raw, wrapped))

    def install(self):
        for owner, name, _orig, wrapped in self.patches:
            setattr(owner, name, wrapped)

    def uninstall(self):
        for owner, name, orig, _wrapped in self.patches:
            setattr(owner, name, orig)

    def top_edges(self, limit=25):
        """The edges with the most self time, for the trace dump."""
        rows = sorted(self.edges.items(), key=lambda kv: -kv[1][2])[:limit]
        return [
            {"parent": p, "name": n, "calls": c, "total_s": round(t, 6), "self_s": round(s, 6)}
            for (p, n), (c, t, s) in rows
        ]

    def layer_metrics(self):
        """Per-pass values of the per-layer metrics derived from the spans."""
        calls = Counter()
        total = Counter()
        selft = Counter()
        reverify = 0.0
        for (parent, name), (c, t, s) in self.edges.items():
            calls[name] += c
            total[name] += t
            selft[name] += s
            if name == "bilinear_core.verify_brent" and parent in REVERIFY_PARENTS:
                reverify += t
        cnt = self.counts

        def over(keys, table):
            return sum(table[_key(k)] for k in keys)

        def layer_self(layer):
            return sum(v for k, v in selft.items() if k.startswith(layer + "."))

        def rate(num, den):
            return num / den if den > 0 else 0.0

        classical_s = total[_key("mat_classical_multiply")]
        parse_s = total[_key("parse_algorithm")]
        gen_s = over(GENERATORS, total)
        out = {
            "exact_algebra.classical_calls": calls[_key("mat_classical_multiply")],
            "exact_algebra.classical_s": classical_s,
            "exact_algebra.classical_madd": cnt["madd"],
            "exact_algebra.classical_madd_per_s": rate(cnt["madd"], classical_s),
            "exact_algebra.elementwise_calls": over(ELEMENTWISE, calls),
            "exact_algebra.elementwise_s": over(ELEMENTWISE, total),
            "exact_algebra.elementwise_entries": cnt["elementwise_entries"],
            "exact_algebra.block_calls": over(BLOCK, calls),
            "exact_algebra.block_s": over(BLOCK, total),
            "exact_algebra.block_entries": cnt["block_entries"],
            "exact_algebra.inverse_s": total[_key("mat_inverse")],
            "recursion.multiply_calls": calls[_key("recursive_multiply")],
            "recursion.multiply_s": total[_key("recursive_multiply")],
            "recursion.self_s": selft[_key("recursive_multiply")],
            "recursion.bilinear_mults": cnt["bilinear_mults"],
            "recursion.additions": cnt["additions"],
            "recursion.scalar_mults": cnt["scalar_mults"],
            "recursion.padding_useful_ratio": (
                rate(cnt["useful_mkn"], cnt["padded_mkn"]) if cnt["padded_mkn"] else 1.0
            ),
            "recursion.invert_s": total[_key("recursive_invert")],
            "recursion.invert_self_s": selft[_key("recursive_invert")],
            "bilinear_core.parse_s": parse_s,
            "bilinear_core.parse_lines_per_s": rate(cnt["parse_lines"], parse_s),
            "bilinear_core.format_s": total[_key("format_algorithm")],
            "bilinear_core.verify_brent_calls": calls[_key("verify_brent")],
            "bilinear_core.verify_brent_s": total[_key("verify_brent")],
            "bilinear_core.verify_brent_terms": cnt["verify_brent_terms"],
            "bilinear_core.verify_random_s": total[_key("verify_trilinear_random")],
            "generators.gen_s": gen_s,
            "generators.products_per_s": rate(cnt["generated_products"], gen_s),
            "transforms.dual_s": total[_key("dual")],
            "transforms.tensor_s": over(("tensor_product", "squareify"), total),
            "transforms.equiv_s": over(("apply_equivalence", "random_equivalence"), total),
            "transforms.self_s": layer_self("transforms"),
        }
        for command in CLI_COMMANDS:
            out[f"cli.{command}_s"] = total[f"cli.cmd_{command}"]
        out["cli.self_s"] = layer_self("cli")
        out["cli.reverify_s"] = reverify
        return out
