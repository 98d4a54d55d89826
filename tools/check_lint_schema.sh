#!/usr/bin/env bash
# Validate rapsim-lint's JSON diagnostic schema.
#
#   tools/check_lint_schema.sh [path/to/rapsim-lint]
#
# Lints the whole built-in kernel catalog under the RAW layout and checks
# the emitted document parses and carries every key downstream consumers
# (run_all.sh analysis drops, editor integrations) rely on — including at
# least one warning diagnostic with fix-its (the naive stride transpose
# must be flagged) and, for every report, the "races" block with its
# race-freedom certificate (the whole catalog is barrier-correct). A
# second run adds --synthesize and validates the report-level "synthesis"
# block (mapping spec, certificate, optimality witness) plus the
# SYNTHESIZE fix-it it feeds. A third run lints a barrier-stripped tile
# kernel and validates the race-finding shape: kind, two-binding witness
# and the INSERT-BARRIER fix-it. Registered as the ctest entry
# `lint_schema` with SKIP_RETURN_CODE 77: a host without python3 skips
# rather than fails.

set -euo pipefail

HERE="$(cd "$(dirname "$0")" && pwd)"
# shellcheck source=tools/json_schema_lib.sh
. "$HERE/json_schema_lib.sh"

BIN="${1:-build/tools/rapsim-lint}"
if [ ! -x "$BIN" ]; then
  echo "check_lint_schema: rapsim-lint binary not found: $BIN" >&2
  exit 1
fi

json_schema_require_python3 check_lint_schema 77

DOC="$(json_schema_tmpfile)"
"$BIN" --width=16 --scheme=raw --format=json --fail-on=never > "$DOC"

json_schema_validate "$DOC" <<'EOF'
import json
import sys

with open(sys.argv[1], encoding="utf-8") as fh:
    doc = json.load(fh)

def require(cond, what):
    if not cond:
        sys.exit(f"lint schema violation: {what}")

require(doc.get("tool") == "rapsim-lint", "tool == rapsim-lint")
require(doc.get("version") == 1, "version == 1")
require(isinstance(doc.get("width"), int), "width is an int")
require(doc.get("scheme") == "RAW", "scheme name is RAW")

reports = doc.get("reports")
require(isinstance(reports, list) and reports, "reports is a non-empty list")

warnings_with_fixits = 0
for report in reports:
    for key in ("kernel", "width", "rows", "scheme", "severity", "clean",
                "worst", "worst_site", "diagnostics"):
        require(key in report, f"report has '{key}'")
    require(report["severity"] in ("info", "warning", "error"),
            "report severity is info/warning/error")
    require(isinstance(report["diagnostics"], list) and report["diagnostics"],
            "diagnostics is a non-empty list")
    for diag in report["diagnostics"]:
        for key in ("severity", "site", "dir", "message", "certificate",
                    "rule", "coverage", "bindings", "classes",
                    "out_of_bounds", "witness", "witness_trace", "fixits"):
            require(key in diag, f"diagnostic has '{key}'")
        cert = diag["certificate"]
        for key in ("scheme", "kind", "bound", "rule", "claim"):
            require(key in cert, f"certificate has '{key}'")
        require(isinstance(diag["witness"], dict), "witness is an object")
        require(isinstance(diag["witness_trace"], list),
                "witness_trace is a list")
        for fixit in diag["fixits"]:
            require("action" in fixit and "detail" in fixit,
                    "fixit has action and detail")
        if diag["severity"] == "warning" and diag["fixits"]:
            warnings_with_fixits += 1

require(warnings_with_fixits >= 1,
        "at least one warning carries fix-its (the stride transpose)")

# Races block: every builtin is barrier-correct, so each report must
# carry a certified race-free verdict.
for report in reports:
    races = report.get("races")
    require(isinstance(races, dict), f"report {report['kernel']} has 'races'")
    for key in ("phases", "pairs_checked", "exhaustive", "race_free",
                "findings"):
        require(key in races, f"races has '{key}'")
    require(races["race_free"] is True,
            f"builtin {report['kernel']} is race-free")
    require(races["findings"] == [], "race-free report has no findings")
    cert = races.get("certificate")
    require(isinstance(cert, dict),
            f"race-free report {report['kernel']} carries the certificate")
    for key in ("kind", "kernel", "width", "rows", "phases", "pairs_checked",
                "claim", "proofs"):
        require(key in cert, f"race certificate has '{key}'")
    require(cert["kind"] == "race-freedom-certificate",
            "certificate kind tag")
    for proof in cert["proofs"]:
        for key in ("first_site", "second_site", "rule", "detail"):
            require(key in proof, f"certificate proof has '{key}'")
        require(proof["rule"] in ("interval-disjoint", "residue-disjoint",
                                  "no-zero-sum", "single-warp",
                                  "enumerated-disjoint"),
                f"known proof rule (got {proof['rule']})")

kernels = {r["kernel"] for r in reports}
require("transpose-crsw" in kernels, "built-in catalog includes the CRSW "
        "transpose")
print(f"lint schema OK: {len(reports)} kernel reports, "
      f"{warnings_with_fixits} warnings with fix-its, all race-certified")
EOF

# Second pass: the synthesis block. The CRSW transpose under RAW warns at
# bound w, and the family search must certify bound 1, so the report
# gains both the "synthesis" object and a SYNTHESIZE fix-it.
SYNTH_DOC="$(json_schema_tmpfile)"
"$BIN" --kernel=transpose-crsw --width=16 --scheme=raw --synthesize \
  --format=json --fail-on=never > "$SYNTH_DOC"

json_schema_validate "$SYNTH_DOC" <<'EOF'
import json
import sys

with open(sys.argv[1], encoding="utf-8") as fh:
    doc = json.load(fh)

def require(cond, what):
    if not cond:
        sys.exit(f"lint synthesis schema violation: {what}")

reports = doc.get("reports")
require(isinstance(reports, list) and len(reports) == 1,
        "one report for --kernel")
report = reports[0]

synth = report.get("synthesis")
require(isinstance(synth, dict), "report has a 'synthesis' object")
for key in ("kernel", "width", "rows", "mapping", "certificate", "witness",
            "coverage", "classes", "candidates", "site_bounds",
            "witness_site", "witness_trace", "baseline"):
    require(key in synth, f"synthesis has '{key}'")
mapping = synth["mapping"]
for key in ("spec", "transform", "digits", "tables"):
    require(key in mapping, f"synthesis.mapping has '{key}'")
require(mapping["spec"].startswith("ps1:"), "mapping spec carries the magic")
cert = synth["certificate"]
for key in ("scheme", "kind", "bound", "rule", "claim"):
    require(key in cert, f"synthesis.certificate has '{key}'")
require(cert["scheme"] == "SYNTH", "certificate scheme is SYNTH")
witness = synth["witness"]
for key in ("kind", "lower_bound", "reason", "detail", "family_size",
            "evaluated", "pruned"):
    require(key in witness, f"synthesis.witness has '{key}'")
require(cert["bound"] == 1, "CRSW synthesizes to bound 1")
require(witness["kind"] == "global-optimal", "bound 1 is global-optimal")

synth_fixits = [f for d in report["diagnostics"] for f in d["fixits"]
                if f["action"] == "SYNTHESIZE"]
require(synth_fixits, "a SYNTHESIZE fix-it is emitted")
require(mapping["spec"] in synth_fixits[0]["detail"],
        "the fix-it quotes the synthesized spec")
print(f"lint synthesis schema OK: bound {cert['bound']}, "
      f"witness {witness['kind']}/{witness['reason']}, "
      f"{len(synth_fixits)} SYNTHESIZE fix-its")
EOF

# Third pass: the race-finding shape. A tile kernel with its barrier
# deleted must produce an error-severity RAW finding with a concrete
# two-binding witness and an INSERT-BARRIER fix-it.
RACY_KERNEL="$(json_schema_tmpfile)"
cat > "$RACY_KERNEL" <<'EOF'
kernel stripped-tile
width 16
rows 16
var u 16
site stage store flat lane=1 u=16 warp=u
site drain load  flat lane=16 u=1 warp=u
EOF

RACY_DOC="$(json_schema_tmpfile)"
"$BIN" --file="$RACY_KERNEL" --width=16 --scheme=raw --format=json \
  --fail-on=never > "$RACY_DOC"

json_schema_validate "$RACY_DOC" <<'EOF'
import json
import sys

with open(sys.argv[1], encoding="utf-8") as fh:
    doc = json.load(fh)

def require(cond, what):
    if not cond:
        sys.exit(f"lint race schema violation: {what}")

reports = doc.get("reports")
require(isinstance(reports, list) and len(reports) == 1,
        "one report for --file")
report = reports[0]
require(report["severity"] == "error", "a race is error severity")

races = report.get("races")
require(isinstance(races, dict), "report has 'races'")
require(races["race_free"] is False, "the stripped tile is not race-free")
require("certificate" not in races, "no certificate when races exist")
require(races["findings"], "findings is non-empty")

insert_barrier_fixits = 0
for finding in races["findings"]:
    for key in ("kind", "phase", "detail", "first", "second", "fixits"):
        require(key in finding, f"finding has '{key}'")
    require(finding["kind"] in ("RAW", "WAW", "WAR"), "known race kind")
    for side in (finding["first"], finding["second"]):
        for key in ("site", "dir", "lane", "warp", "address", "binding"):
            require(key in side, f"witness access has '{key}'")
        require(isinstance(side["binding"], dict), "binding is an object")
    require(finding["first"]["address"] == finding["second"]["address"],
            "both witness sides touch the same word")
    require(finding["first"]["warp"] != finding["second"]["warp"],
            "the witness crosses warps")
    for fixit in finding["fixits"]:
        require("action" in fixit and "detail" in fixit,
                "race fixit has action and detail")
        if fixit["action"] == "INSERT-BARRIER":
            insert_barrier_fixits += 1

require(insert_barrier_fixits >= 1, "an INSERT-BARRIER fix-it is emitted")
print(f"lint race schema OK: {len(races['findings'])} finding(s), "
      f"{insert_barrier_fixits} INSERT-BARRIER fix-it(s)")
EOF
