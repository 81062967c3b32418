"""The whole catalog on one page: signatures, law arrows, grades.

Runs the full law suite over every shipped transformation and renders
the comparison table.  Right arrows mean a law holds forward, left
arrows backward, tildes mark weak variants, and a blank cell means the
law fails or cannot be expressed for that interface.
"""
from bxkit import catalog_entries, classify, render_report, run_suite, well_behaved

rows = []
grades = []
for name, entry in catalog_entries().items():
    report = run_suite(entry.bx)
    rows.append((name, classify(entry.bx), report))
    grades.append((name, entry.framework, well_behaved(report)))

print(render_report(rows))
print()
print("grades:")
for name, framework, grade in grades:
    print(f"  {name:22s} {framework:15s} {grade}")
print()
print("the deliberate negatives (broken put, resetting repair, stale repair,")
print("oscillating toy) surface as blank cells and not-well-behaved grades.")
