"""Batch command-line front end.

Exit codes: 0 success / holds / accepted; 1 semantic failure (non-model,
rejected proof, axiom failure); 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import doctrine as D
from . import finrel, rewrite, theory as theory_mod
from .finrel import evaluate, inclusion_witness, parse_interpretation
from .terms import DiagrelError, Signature, desugar, parse_term, print_term, typecheck


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _term_arg(text, sig):
    """A term argument is a file path or a literal s-expression."""
    if os.path.exists(text):
        text = _read(text)
    return parse_term(text, sig)


def _load_sig(args):
    if not args.sig:
        return Signature({})
    return Signature.parse(_read(args.sig))


def _load_interp(args, sig):
    if not args.interp:
        raise DiagrelError("this command needs --interp FILE")
    return parse_interpretation(_read(args.interp), sig)


def _cmd_typecheck(args):
    sig = _load_sig(args)
    n, m = typecheck(_term_arg(args.term, sig), sig)
    print(f"{n} -> {m}")
    return 0


def _cmd_desugar(args):
    sig = _load_sig(args)
    print(print_term(desugar(_term_arg(args.term, sig), sig)))
    return 0


def _cmd_eval(args):
    sig = _load_sig(args)
    interp = _load_interp(args, sig)
    rel = evaluate(_term_arg(args.term, sig), interp)
    sys.stdout.write(finrel.format_relation("result", rel))
    return 0


def _cmd_included(args):
    sig = _load_sig(args)
    interp = _load_interp(args, sig)
    lhs, rhs = _term_arg(args.lhs, sig), _term_arg(args.rhs, sig)
    if (ty1 := typecheck(lhs, sig)) != (ty2 := typecheck(rhs, sig)):
        raise DiagrelError(f"sides typed {ty1} vs {ty2}")  # before either is evaluated
    witness = inclusion_witness(evaluate(lhs, interp), evaluate(rhs, interp))
    print("included" if witness is None else f"not included: witness {witness}")
    return 0 if witness is None else 1


def _cmd_check_model(args):
    theory = theory_mod.parse_theory(_read(args.theory))
    interp = _load_interp(args, theory.signature)
    report = theory_mod.check_model(theory, interp)
    if args.machine:
        for name, holds, witness in report.verdicts:
            print(f"axiom={name} holds={str(holds).lower()}"
                  + (f" witness={witness}" if witness else ""))
    else:
        print(report)
    print("model" if report.is_model else "not a model")
    return 0 if report.is_model else 1


def _cmd_find_models(args):
    theory = theory_mod.parse_theory(_read(args.theory))
    models = theory_mod.enumerate_models(theory, args.size, bound=args.max_space)
    print(f"models: {len(models)}")
    for i, interp in enumerate(models):
        if args.machine:
            for name in sorted(interp.assignment):
                rel = interp.assignment[name]
                print(f"model={i} rel={name} bits={rel.bits}")
        else:
            print(f"# model {i}")
            sys.stdout.write(finrel.print_interpretation(interp))
    return 0


def _cmd_check_proof(args):
    sig = _load_sig(args)
    script = rewrite.parse_proof(_read(args.proof), sig)
    if args.spotcheck:
        rewrite.check_trials(args.trials, args.size)
    verdict = rewrite.check_proof(script, sig)
    print(verdict)
    if not verdict.accepted:
        return 1
    if args.spotcheck:
        ok, counter = rewrite.semantic_spotcheck(
            script, sig, trials=args.trials, k=args.size, seed=args.seed)
        if not ok:
            print(f"spotcheck countermodel: {counter[1]}")
            return 1
        print(f"spotcheck passed ({args.trials} trials, carrier {args.size})")
    return 0


def _cmd_verify_axioms(args):
    reports = rewrite.verify_axioms(
        k=args.size, trials=args.trials, seed=args.seed, family=args.family)
    failures = 0
    for r in reports:
        if args.machine:
            print(f"axiom={r.name} family={r.family} trials={r.trials} "
                  f"failures={r.failures}")
        else:
            line = f"{r.name} [{r.family}]: {r.trials - r.failures}/{r.trials}"
            if not r.ok:
                line += f"  counterexample: {r.counterexample}"
            print(line)
        failures += r.failures
    print(f"axioms: {len(reports)}  failing: {sum(1 for r in reports if not r.ok)}")
    return 0 if failures == 0 else 1


def _cmd_spider(args):
    sig = _load_sig(args)
    form = rewrite.spider_normalize(_term_arg(args.term, sig), sig)
    blocks = sorted(sorted(b) for b in form.partition)
    print(f"colour: {'white' if form.colour == 'w' else 'black'}")
    print(f"type: {form.n} -> {form.m}")
    print("partition: " + " ".join("{" + ",".join(b) + "}" for b in blocks))
    print(f"closed components: {form.closed}")
    return 0


def _cmd_doctrine(args):
    if args.action == "comprehension":
        X = D.FinSetObj(args.size)
        alpha = D.Predicate.from_members(X, args.members)
        X_a, incl, report = D.comprehension(alpha)
        print(f"object size: {X_a.size}")
        print("incl " + D.print_morphism(incl))
        for key, val in report.items():
            print(f"{key}: {str(val).lower()}")
        return 0 if all(report.values()) else 1
    X, Y = D.FinSetObj(args.size), D.FinSetObj(args.size)  # ruc
    phi = D.Predicate.from_members(D.prod(X, Y), args.members)
    f = D.ruc_witness(phi, X, Y)
    if f is None:
        print("none (not entire)")
        return 1
    print(D.print_morphism(f))
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process and shared by every `run`:
    parsing leaves no state in it, and no caller may modify it.  Each argument
    is one argparse Action, declared once on a holder parser and added as it
    is to every subcommand that takes it."""
    top = argparse.ArgumentParser(
        prog="diagrel",
        description="Two-coloured diagram calculus: typechecking, relation "
                    "semantics, proof checking, model finding.")
    sub = top.add_subparsers(dest="command", required=True)
    arg = argparse.ArgumentParser(add_help=False).add_argument

    # every subcommand but doctrine takes --max-bits; doctrine's --size is its own
    limits = arg("--max-bits", type=int, help="relation size guard in bits (default 2^30)")
    sig = arg("--sig", help="signature file (`sig NAME : N -> M` lines)")
    interp = arg("--interp", help="interpretation file")
    machine = arg("--machine", action="store_true")
    size = arg("--size", type=int, default=2)
    trials = arg("--trials", type=int, default=argparse.SUPPRESS)  # set per subcommand
    seed = arg("--seed", type=int, default=0)
    term, theory = arg("term"), arg("theory", help="theory file")

    def command(name, fn, summary, *actions, **defaults):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(fn=fn, **defaults)  # first, so no shared action's default changes
        for action in (limits, *actions):
            p._add_action(action)  # as `parents=` adds each inherited action

    command("typecheck", _cmd_typecheck, "type a term", sig, term)
    command("desugar", _cmd_desugar, "expand derived constructors", sig, term)
    command("eval", _cmd_eval, "evaluate a term as a finite relation", sig, interp, term)
    command("included", _cmd_included, "test semantic inclusion of two terms", sig, interp,
            arg("lhs"), arg("rhs"))
    command("check-model", _cmd_check_model, "check an interpretation against a theory",
            interp, machine, theory)
    command("find-models", _cmd_find_models, "enumerate models at a carrier size", size,
            arg("--max-space", type=int, default=theory_mod.DEFAULT_SEARCH_BOUND),
            machine, theory)
    command("check-proof", _cmd_check_proof, "validate a proof script", sig,
            arg("--spotcheck", action="store_true",
                help="also test the claim on random interpretations"),
            size, trials, seed, arg("proof", help="proof file"), trials=50)
    command("verify-axioms", _cmd_verify_axioms,
            "check the axiom database against the relation model", size, trials, seed,
            arg("--family", help="check only the axioms of this family"), machine, trials=200)
    command("spider", _cmd_spider, "normalize a Frobenius-fragment term", sig, term)

    p = sub.add_parser("doctrine", help="powerset-doctrine utilities")
    p.add_argument("action", choices=["comprehension", "ruc"])
    p.add_argument("--size", type=int, required=True,
                   help="object size (for ruc: both object sizes)")
    p.add_argument("members", type=int, nargs="*",
                   help="member indices of the predicate")
    p.set_defaults(fn=_cmd_doctrine)

    return top


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 2
    try:
        with finrel.size_guard(getattr(args, "max_bits", None)):
            return args.fn(args)
    except (DiagrelError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: term nesting too deep", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
