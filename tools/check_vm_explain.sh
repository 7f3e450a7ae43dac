#!/usr/bin/env bash
# CI gate: the canonical XMark path, constructor, order-by, and value-join
# (Q08-Q12) shapes must lower entirely to the VM's opcodes — any `[bailout:` annotation in
# the vm EXPLAIN tree is a regression in the bytecode compiler's lowering.
#
# Usage: tools/check_vm_explain.sh <path-to-xqp>
set -euo pipefail

XQP="${1:?usage: check_vm_explain.sh <path-to-xqp>}"

QUERY_IDS=(Q06 Q07 Q08 Q09 Q10 Q11 Q12)
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
)

fail=0
check() {
  local label="$1"; shift
  local out
  out="$("$XQP" "$@" --xmark 0.01 --backend vm --explain)"
  if grep -q '\[bailout:' <<<"$out"; then
    echo "FAIL: vm bailout in compiled path plan for ${label}:" >&2
    grep '\[bailout:' <<<"$out" >&2
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
