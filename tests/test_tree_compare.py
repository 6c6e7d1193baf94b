import json

from tree_compare import compare_trees, format_rows, main


def write_tree(root, report, csv):
    root.mkdir()
    (root / "report.json").write_text(json.dumps(report, indent=2))
    (root / "sup_u.csv").write_text(csv)
    return root


def test_tree_compare_counts_moves_per_file_and_key(tmp_path, capsys):
    old = write_tree(tmp_path / "old", {
        "passed": True,
        "criteria": [{"id": "kg-envelope", "details": {
            "max_ratio": 0.5, "rel_change": 2.0e-3, "lines": 7}}],
        "exponents": {"sup_u_exponent": -1.25}},
        "t,value\n2.0,1.5\n3.0,0.0\n")
    new = write_tree(tmp_path / "new", {
        "passed": True,
        "criteria": [{"id": "kg-envelope", "details": {
            "max_ratio": 0.5 * (1 + 1e-12), "rel_change": 2.0e-3 * 1.5,
            "lines": 7}}],
        "exponents": {"sup_u_exponent": -1.25}},
        "t,value\n2.0,1.5000000001\n3.0,0.0\n")
    rows = {name: (status, t) for name, status, t
            in compare_trees(old, new, keys=True)}
    status, report = rows["report.json"]
    assert status == "same text"
    assert (report.numbers, report.moved) == (4, 2)
    assert abs(report.max_rel - 0.5) < 1e-12       # rel_change, x 1.5
    ratio = rows["report.json:max_ratio"][1]
    assert ratio.moved == 1 and 0 < ratio.max_rel < 1e-11
    assert rows["report.json:lines"][1].moved == 0
    csv = rows["sup_u.csv"][1]
    assert (csv.numbers, csv.moved) == (4, 1)
    assert abs(csv.max_rel - 1e-10 / 1.5) < 1e-15
    assert "| sup_u.csv | same text | 4 | 1 |" in format_rows(
        compare_trees(old, new))

    # a JSON leaf at a new path is counted apart; the shared ones still
    # compare
    doc = json.loads((new / "report.json").read_text())
    doc["criteria"][0]["details"]["widths"] = {"u.-.L0": 0.5}
    (new / "report.json").write_text(json.dumps(doc))
    rows = {name: (status, t) for name, status, t in compare_trees(old, new)}
    assert rows["report.json"][0] == "1 new, 0 gone"
    assert rows["report.json"][1].moved == 2

    # a flipped verdict and a file in one tree only are text changes
    (new / "report.json").write_text(
        (new / "report.json").read_text().replace("true", "false"))
    (new / "extra.txt").write_text("1\n")
    rows = {name: status for name, status, _ in compare_trees(old, new)}
    assert rows["report.json"] == "text differs"
    assert rows["extra.txt"] == "new only"
    assert main([str(old), str(new)]) == 1
    assert main([str(old), str(old)]) == 0
    capsys.readouterr()
