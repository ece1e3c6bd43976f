package unionfind

// Methods only tests call: production code has no use for them, so they
// live with the tests (see ftlint's deadexport rule).

// Same reports whether x and y are in one component.
func (d *Sparse) Same(x, y int) bool { return d.Find(x) == d.Find(y) }
