"""The exhaustive axiom sweep that groupoid.validate_raw ran on every raw
table before it validated by isomorphism onto the normal form, kept as the
reference it is tested against: endpoints of every compose entry, the unit
law at every arrow, associativity on every composable triple, and the
existence and uniqueness of every inverse, each violation listed in that
order. validate_raw must return this report, violations and order
included, for every structurally well-formed table.
"""

from soficlab.groupoid import RawGroupoid, ValidationReport, _raw_structure


def reference_validate(raw: RawGroupoid) -> ValidationReport:
    src, rng = _raw_structure(raw)
    comp = raw.compose
    violations = []

    for (a, b), c in comp.items():
        if src[c] != src[b] or rng[c] != rng[a]:
            violations.append(f"composition endpoints at ({a!r},{b!r})")

    for a in src:
        if comp.get((a, src[a])) != a or comp.get((rng[a], a)) != a:
            violations.append(f"unit law at {a!r}")

    arrows_by_rng = {}
    for a in src:
        arrows_by_rng.setdefault(rng[a], []).append(a)
    for a in src:
        for b in arrows_by_rng.get(src[a], ()):
            ab = comp[(a, b)]
            for c in arrows_by_rng.get(src[b], ()):
                left = comp.get((ab, c))
                right = comp.get((a, comp[(b, c)]))
                if left is None or right is None:
                    continue
                if left != right:
                    violations.append(f"associativity at ({a!r},{b!r},{c!r})")

    for a in src:
        candidates = [
            b
            for b in src
            if src[b] == rng[a]
            and rng[b] == src[a]
            and comp[(a, b)] == rng[a]
            and comp[(b, a)] == src[a]
        ]
        if not candidates:
            violations.append(f"inverse law at {a!r}")
        elif len(candidates) > 1:
            violations.append(f"inverse uniqueness at {a!r}")

    return ValidationReport(not violations, tuple(violations))
