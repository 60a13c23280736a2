"""Walk through the annotation model: parse ACSL out of a C file, inspect
construct kinds and anchors, strip the annotations, and weave them back.

Run from the repository root:  python3 demos/01_parse_and_weave.py
"""

from specloop import parse_annotations, strip_annotations, weave

ANNOTATED = """\
/*@ logic integer digit_sum(integer n) = n < 10 ? n : digit_sum(n / 10) + n % 10; */

/*@ lemma digit_sum_zero: digit_sum(0) == 0; */

/*@ lemma digit_sum_step:
  @   \\forall integer n; n > 0 ==> digit_sum(n) == digit_sum(n / 10) + n % 10;
  @*/

/*@ requires num >= 0;
  @ ensures \\result == digit_sum(num);
  @ assigns \\nothing;
  @*/
int func(int num) {
  int sum = 0;
  /*@ loop invariant num >= 0;
      loop assigns sum, num;
      loop variant num; */
  while (num > 0) {
    sum += num % 10;
    num /= 10;
  }
  return sum;
}
"""

spec = parse_annotations(ANNOTATED, file="digit_sum.c")

print(f"parsed {len(spec)} annotations")
for ann in spec:
    print(f"  {ann.kind.keyword:<14} {ann.anchor!s:<40} "
          f"lines {ann.span.start_line}-{ann.span.end_line}")

print("\nconstructs used:", sorted(k.keyword for k in spec.constr()))

bare = strip_annotations(ANNOTATED)
print("\n--- bare program (annotations stripped) ---")
print(bare)

woven = weave(bare, spec)
print("--- woven back ---")
print(woven)

assert parse_annotations(woven) == spec
print("round trip holds: parse(weave(bare, spec)) == spec")
