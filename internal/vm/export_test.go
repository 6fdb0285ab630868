package vm

// FileCaches returns the number of file caches the VMM tracks.
func (v *VMM) FileCaches() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.caches)
}
