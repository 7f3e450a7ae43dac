#!/usr/bin/env bash
# CI gate: the canonical XMark path, filter, constructor, order-by, and
# value-join (Q02-Q04, Q06-Q12) shapes and the message-broker routes and
# transforms must lower entirely to the VM's opcodes. The vm EXPLAIN tree
# must show the compiled root ` [vm]` and no `[bailout:` annotation: a plan
# the compiler declines runs whole on the lazy engine, a regression in the
# bytecode compiler's lowering.
#
# Usage: tools/check_vm_explain.sh <path-to-xqp>
set -euo pipefail

XQP="${1:?usage: check_vm_explain.sh <path-to-xqp>}"

QUERY_IDS=(Q02 Q03 Q04 Q06 Q07 Q08 Q09 Q10 Q11 Q12)
TEXT_SHAPES=(
  "doc('xmark.xml')/site/people/person[@id = 'person0']/name"
  "doc('xmark.xml')/site/people/person/name"
  "doc('xmark.xml')//item/name"
  "doc('xmark.xml')//item[quantity < 2]"
  "doc('xmark.xml')//person[@id = 'person0']"
  "doc('xmark.xml')//open_auction/bidder/increase"
  "sum(for \$q in doc('xmark.xml')//quantity, \$i in 1 to 60 return \$q * \$i + (\$q idiv 2) - (\$i mod 7))"
  "for \$p in doc('xmark.xml')/site/people/person return <hit id=\"{\$p/@id}\">{string(\$p/name)}</hit>"
  "for \$i in doc('xmark.xml')//item return element {name(\$i)} {attribute n {count(\$i/*)}, text {string(\$i/name)}}"
  "for \$p in doc('xmark.xml')/site/people/person order by string(\$p/name) descending, string(\$p/@id) return string(\$p/@id)"
  "exists(/order[customer/@region = 'EU'])"
  "exists(//alert[@severity = ('high', 'critical')])"
  "exists(/*[namespace-uri(.) = 'urn:rosettanet'])"
  "string(/*/*[local-name(.) = 'action'])"
  "for \$t in /wlc/trading-partner/transport return string(\$t/endpoint[1]/@uri)"
)

fail=0
check() {
  local label="$1"; shift
  local out
  out="$("$XQP" "$@" --xmark 0.01 --backend vm --explain)"
  if grep -q '\[bailout:' <<<"$out" || ! grep -q ' \[vm\]' <<<"$out"; then
    echo "FAIL: vm declined the plan for ${label}:" >&2
    grep '\[bailout:' <<<"$out" >&2 || true
    fail=1
  else
    echo "ok: ${label}"
  fi
}

for id in "${QUERY_IDS[@]}"; do
  check "$id" --query "$id"
done
for text in "${TEXT_SHAPES[@]}"; do
  check "$text" "$text"
done

exit "$fail"
