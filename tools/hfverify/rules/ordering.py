"""Handler-ordering rule: dedup dominates side effects.

PR 3's idempotence contract (DESIGN.md §11): every handler of a sequenced
computation message must consult the per-sender `already_seen(src, msg_seq)`
predicate *before* any protocol side effect — store mutation, weight
borrow/repay, routing. A duplicated frame that repays weight before the
dedup check breaks weight conservation.

Mechanically, for every function in `dist/site_server.cpp` that takes a
parameter of a sequenced message type (any struct with a `msg_seq` field):

  1. it must call the dedup predicate (`already_seen`),
  2. the call must be the condition of a positive `if` whose block returns
     (only pure accounting calls allowed inside — the early-return shape
     the rest of the file uses),
  3. no side-effect call may precede it in the body.

`// hfverify: allow-ordering(reason)` on the offending line waives a
finding; a handler that legitimately has no dedup (none today) would carry
the waiver on its first line.
"""

from typing import List, Optional, Set

from .. import cpp_lexer as lx
from ..model import Program, Violation


def _sequenced_types(program: Program) -> Set[str]:
    return {name for name, info in program.classes.items()
            if "msg_seq" in info.fields}


def check(program: Program, handler_file: Optional[str] = None,
          ) -> List[Violation]:
    from ..allowlist import (DEDUP_GUARD_ALLOWED_CALLS, DEDUP_PREDICATE,
                             HANDLER_FILE, SIDE_EFFECT_CALLS)
    handler_file = handler_file or HANDLER_FILE
    sequenced = _sequenced_types(program)
    violations: List[Violation] = []

    handlers = []
    for fn in program.functions.values():
        if fn.file != handler_file or not fn.has_definition:
            continue
        if any(set(ptype.split()) & sequenced for ptype, _ in fn.params):
            handlers.append(fn)

    for fn in sorted(handlers, key=lambda f: f.line):
        toks = fn.body_tokens
        dedup_calls = [c for c in fn.calls if c.name == DEDUP_PREDICATE]
        side_effects = [c for c in fn.calls if c.name in SIDE_EFFECT_CALLS]
        if not dedup_calls:
            if not program.waiver_for("ordering", fn.file, fn.line):
                violations.append(Violation(
                    "ordering", fn.file, fn.line,
                    f"{fn.qname} handles a sequenced message but never "
                    f"calls {DEDUP_PREDICATE}()"))
            continue
        dedup = dedup_calls[0]

        # Side effects sequenced before the dedup check.
        for call in side_effects:
            if call.token_index >= dedup.token_index:
                continue
            if program.waiver_for("ordering", fn.file, call.line):
                continue
            violations.append(Violation(
                "ordering", fn.file, call.line,
                f"{fn.qname} calls side effect {call.name}() before the "
                f"{DEDUP_PREDICATE}() dedup check (line {dedup.line})"))

        # The dedup call must be an `if (already_seen(...))` early return.
        guard_ok = False
        detail = "is not the condition of an `if`"
        for k in range(dedup.token_index - 1, -1, -1):
            t = toks[k]
            if t.text == "if" and k + 1 < len(toks) and \
                    toks[k + 1].text == "(":
                cond_close = lx.match_forward(toks, k + 1, "(", ")")
                if not (k + 1 < dedup.token_index < cond_close):
                    continue
                if toks[k + 2].text == "!":
                    detail = ("is negated — use the early-return shape "
                              "`if (already_seen(...)) { ...; return; }`")
                    break
                j = cond_close + 1
                if j < len(toks) and toks[j].text == "return":
                    # Unbraced early return: `if (already_seen(...)) return;`
                    k2 = j + 1
                    while k2 < len(toks) and toks[k2].text != ";":
                        k2 += 1
                    if not any(toks[x].text == "(" for x in range(j, k2)):
                        guard_ok = True
                    else:
                        detail = ("unbraced guard returns a call "
                                  "expression — brace it so the rule can "
                                  "vet the calls")
                    break
                if j >= len(toks) or toks[j].text != "{":
                    detail = "guard block is not braced"
                    break
                body_close = lx.match_forward(toks, j, "{", "}")
                block = toks[j + 1:body_close]
                if not any(x.text == "return" for x in block):
                    detail = "guard block does not return"
                    break
                bad = [x.text for i, x in enumerate(block)
                       if x.kind == lx.ID and i + 1 < len(block)
                       and block[i + 1].text == "("
                       and (i == 0 or block[i - 1].kind != lx.ID)
                       and x.text not in DEDUP_GUARD_ALLOWED_CALLS
                       and x.text not in ("if", "return", "static_cast")]
                if bad:
                    detail = (f"guard block calls non-accounting "
                              f"function(s) {sorted(set(bad))}")
                    break
                guard_ok = True
                break
            if t.text in (";", "{", "}"):
                break
        if not guard_ok and \
                not program.waiver_for("ordering", fn.file, dedup.line):
            violations.append(Violation(
                "ordering", fn.file, dedup.line,
                f"{fn.qname}: {DEDUP_PREDICATE}() result {detail}"))

    violations.sort(key=lambda v: (v.file, v.line))
    return violations
