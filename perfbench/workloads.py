"""The benchmark's workloads: seeded spec files, commands and output checks.

The seed sets coefficient values, never the support of the curve data,
because the support is what sets the amount of work. The program sees only
the generated spec files. Seed 0 is the default: its spec files are the
paper's phi11(t) curve and the plain zoo curves, and every output it gives
is checked against a recorded sha256 digest.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

DEFAULT_SEED = 0
CROSSCHECK_CHI = 5

# Small nonzero rationals, so that a seed changes the size of the exact
# numbers only a little and never the support. A constant weight M scales
# every dilaton coefficient of a fitted curve alike; a weight of higher
# degree could cancel one of them and change the support.
TAU3_VALUES = ("2", "3", "1/2", "1/3", "2/3", "3/2", "-1", "-2", "-1/2")
T_FACTORS = ("2", "3", "1/2", "1/3", "2/3", "3/2", "-1", "-2", "-1/3")
M_VALUES = ("2", "3", "1/2", "1/3", "2/3", "3/2", "-1", "-2", "-1/2")


@dataclass
class Command:
    label: str
    argv: list
    out: str = None  # result file written by the command, else stdout


@dataclass
class Workload:
    name: str
    main: str  # label of the command reported as main_command_s
    chi_max: int

    def write_specs(self, seed, workdir):
        """Spec files for this seed, by label; returns {label: path}."""
        rng = random.Random(seed)
        docs = {}
        if self.name == "residue-deep":
            tau3, factor = ("1", "1") if seed == DEFAULT_SEED else (
                rng.choice(TAU3_VALUES), rng.choice(T_FACTORS))
            docs["phi11"] = {
                "epsilon": 3, "symbols": [{"name": "t"}],
                "tau": {"3": tau3}, "phi": {"1,1": f"{factor}*t"},
                "trunc": 24}
        else:
            names = ["ramond"] if self.name == "crosscheck-fitted" \
                else ["ramond", "ns_plus", "ns_minus"]
            for name in names:
                m_coeffs = ["1" if seed == DEFAULT_SEED
                            else rng.choice(M_VALUES)]
                docs[name] = {"zoo": {"name": name, "M_coeffs": m_coeffs,
                                      "params": {}},
                              "trunc": 27}
        paths = {}
        for label, doc in docs.items():
            paths[label] = os.path.join(workdir, f"{label}.json")
            with open(paths[label], "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
        return paths

    def commands(self, specs, workdir):
        if self.name == "residue-deep":
            base = ["compute", "--engine", "tr", "--chi-max",
                    str(self.chi_max), "--curve", specs["phi11"]]
            cold = os.path.join(workdir, "cold.json")
            warm = os.path.join(workdir, "warm.json")
            return [Command("compute_cold", base + ["--no-cache", "--out",
                                                    cold], cold),
                    Command("compute_warm", base + ["--out", warm], warm)]
        if self.name == "crosscheck-fitted":
            return [Command("crosscheck",
                            ["crosscheck", "--chi-max", str(self.chi_max),
                             "--curve", specs["ramond"]])]
        return ([Command("verify_algebra", ["verify-algebra", "--degree",
                                            "4", "--mode-range", "2"])]
                + [Command(f"verify_curve.{label}",
                           ["verify-curve", "--curve", path])
                   for label, path in specs.items()])

    def engine_labels(self, specs):
        """Labels of the specs whose engines are cross-checked at chi 5."""
        return [] if self.name == "verify" else list(specs)


# Why each workload is there is written in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("residue-deep", "compute_cold", 7),
    Workload("crosscheck-fitted", "crosscheck", 6),
    Workload("verify", "verify_algebra", 0),
)}
