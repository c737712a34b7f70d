package journey

// DominantStage returns the stage charged the most cycles (ties go to
// the shallower stage, matching enumeration order).
func (j *Journey) DominantStage() Stage {
	best := Stage(0)
	for s := 1; s < NumStages; s++ {
		if j.Vec[s] > j.Vec[best] {
			best = Stage(s)
		}
	}
	return best
}
