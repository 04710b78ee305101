package relation

// HasFullKeyIndex reports whether r holds a composite index over every
// column: a second copy of the primary key that full-key probes make
// redundant, so no caller should ever build one.
func HasFullKeyIndex(r *Relation) bool {
	p := r.cidx.Load()
	if p == nil || r.arity == 0 || r.arity >= 64 {
		return false
	}
	_, ok := p.m[1<<uint(r.arity)-1]
	return ok
}
